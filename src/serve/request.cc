#include "serve/request.hh"

#include <cmath>
#include <functional>
#include <initializer_list>
#include <utility>

#include <algorithm>

#include "core/ensemble_io.hh"
#include "opt/chiplet_io.hh"
#include "support/error.hh"

namespace ttmcas::serve {

namespace {

/**
 * Internal control flow for the validators below: thrown on the first
 * unrecoverable problem with a request and converted to the structured
 * RequestError reply at the parseRequestLine() boundary. Never escapes
 * this translation unit.
 */
struct ParseFailure
{
    RequestError error;
};

[[noreturn]] void
reject(std::string code, std::string message,
       std::vector<std::string> violations = {})
{
    ParseFailure failure;
    failure.error.code = std::move(code);
    failure.error.message = std::move(message);
    failure.error.violations = std::move(violations);
    throw failure;
}

double
asFiniteNumber(const JsonValue& value, const std::string& field)
{
    if (value.kind() != JsonValue::Kind::Number)
        reject("invalid-request", "field '" + field + "' must be a number");
    const double number = value.asNumber();
    if (!std::isfinite(number))
        reject("invalid-request", "field '" + field + "' must be finite");
    return number;
}

double
positiveNumber(const JsonValue& value, const std::string& field)
{
    const double number = asFiniteNumber(value, field);
    if (number <= 0.0)
        reject("invalid-request", "field '" + field + "' must be > 0");
    return number;
}

double
nonNegativeNumber(const JsonValue& value, const std::string& field)
{
    const double number = asFiniteNumber(value, field);
    if (number < 0.0)
        reject("invalid-request", "field '" + field + "' must be >= 0");
    return number;
}

std::uint64_t
asCount(const JsonValue& value, const std::string& field)
{
    const double number = nonNegativeNumber(value, field);
    if (number != std::floor(number) || number > 9.007199254740992e15)
        reject("invalid-request",
               "field '" + field + "' must be a non-negative integer");
    return static_cast<std::uint64_t>(number);
}

const std::string&
asStringField(const JsonValue& value, const std::string& field)
{
    if (value.kind() != JsonValue::Kind::String)
        reject("invalid-request", "field '" + field + "' must be a string");
    return value.asString();
}

bool
asBoolField(const JsonValue& value, const std::string& field)
{
    if (value.kind() != JsonValue::Kind::Boolean)
        reject("invalid-request", "field '" + field + "' must be a boolean");
    return value.asBool();
}

void
requireObject(const JsonValue& value, const std::string& field)
{
    if (value.kind() != JsonValue::Kind::Object)
        reject("invalid-request", "field '" + field + "' must be an object");
}

/** Reject unknown keys so a typo'd field never silently defaults. */
void
requireOnlyKeys(const JsonValue& object,
                std::initializer_list<const char*> allowed,
                const std::string& context)
{
    for (const std::string& key : object.keys()) {
        bool known = false;
        for (const char* name : allowed) {
            if (key == name) {
                known = true;
                break;
            }
        }
        if (!known)
            reject("invalid-request",
                   "unknown field '" + key + "' in " + context);
    }
}

Die
parseDie(const JsonValue& value, std::size_t index)
{
    const std::string context = "dies[" + std::to_string(index) + "]";
    requireObject(value, context);
    requireOnlyKeys(value,
                    {"name", "process", "total_transistors",
                     "unique_transistors", "count_per_package", "area_mm2",
                     "min_area_mm2", "yield_override"},
                    context);
    Die die;
    die.name = value.has("name")
                   ? asStringField(value.at("name"), context + ".name")
                   : "die" + std::to_string(index);
    if (!value.has("process"))
        reject("invalid-request", context + " is missing 'process'");
    die.process = asStringField(value.at("process"), context + ".process");
    if (!value.has("total_transistors"))
        reject("invalid-request",
               context + " is missing 'total_transistors'");
    die.total_transistors = asFiniteNumber(value.at("total_transistors"),
                                           context + ".total_transistors");
    if (!value.has("unique_transistors"))
        reject("invalid-request",
               context + " is missing 'unique_transistors'");
    die.unique_transistors = asFiniteNumber(
        value.at("unique_transistors"), context + ".unique_transistors");
    if (value.has("count_per_package"))
        die.count_per_package = asFiniteNumber(
            value.at("count_per_package"), context + ".count_per_package");
    if (value.has("area_mm2"))
        die.area_override = SquareMm(
            asFiniteNumber(value.at("area_mm2"), context + ".area_mm2"));
    if (value.has("min_area_mm2"))
        die.min_area = SquareMm(asFiniteNumber(
            value.at("min_area_mm2"), context + ".min_area_mm2"));
    if (value.has("yield_override"))
        die.yield_override = asFiniteNumber(value.at("yield_override"),
                                            context + ".yield_override");
    return die;
}

ChipDesign
parseDesign(const JsonValue& value, const ServeLimits& limits)
{
    requireObject(value, "design");
    requireOnlyKeys(value, {"name", "design_weeks", "dies"}, "design");
    ChipDesign design;
    design.name = value.has("name")
                      ? asStringField(value.at("name"), "design.name")
                      : "request-design";
    if (value.has("design_weeks"))
        design.design_time = Weeks(asFiniteNumber(value.at("design_weeks"),
                                                  "design.design_weeks"));
    if (!value.has("dies"))
        reject("invalid-request", "design is missing 'dies'");
    const JsonValue& dies = value.at("dies");
    if (dies.kind() != JsonValue::Kind::Array)
        reject("invalid-request", "design.dies must be an array");
    if (dies.asArray().empty())
        reject("invalid-request", "design.dies must not be empty");
    if (dies.asArray().size() > limits.max_dies)
        reject("limit-exceeded",
               "design has " + std::to_string(dies.asArray().size()) +
                   " dies, more than the limit of " +
                   std::to_string(limits.max_dies));
    for (std::size_t i = 0; i < dies.asArray().size(); ++i)
        design.dies.push_back(parseDie(dies.asArray()[i], i));

    // All-at-once semantic validation: one reply names every problem.
    const std::vector<std::string> violations = design.violations();
    if (!violations.empty())
        reject("invalid-design",
               "design fails validation with " +
                   std::to_string(violations.size()) + " violation(s)",
               violations);
    return design;
}

void
parseMarketMap(const JsonValue& object, const std::string& field,
               const std::function<void(const std::string&, double)>& set)
{
    requireObject(object, field);
    for (const std::string& node : object.keys()) {
        if (node.empty())
            reject("invalid-request",
                   field + " contains an empty node name");
        set(node,
            asFiniteNumber(object.at(node), field + "." + node));
    }
}

MarketConditions
parseMarket(const JsonValue& value)
{
    requireObject(value, "market");
    requireOnlyKeys(
        value, {"global_capacity", "capacity", "queue_weeks", "queue_wafers"},
        "market");
    MarketConditions market;
    if (value.has("global_capacity")) {
        market.setGlobalCapacityFactor(nonNegativeNumber(
            value.at("global_capacity"), "market.global_capacity"));
    }
    if (value.has("capacity")) {
        parseMarketMap(value.at("capacity"), "market.capacity",
                       [&](const std::string& node, double factor) {
                           if (factor < 0.0)
                               reject("invalid-request",
                                      "market.capacity." + node +
                                          " must be >= 0");
                           market.setCapacityFactor(node, factor);
                       });
    }
    if (value.has("queue_weeks")) {
        parseMarketMap(value.at("queue_weeks"), "market.queue_weeks",
                       [&](const std::string& node, double weeks) {
                           if (weeks < 0.0)
                               reject("invalid-request",
                                      "market.queue_weeks." + node +
                                          " must be >= 0");
                           market.setQueueWeeks(node, Weeks(weeks));
                       });
    }
    if (value.has("queue_wafers")) {
        parseMarketMap(value.at("queue_wafers"), "market.queue_wafers",
                       [&](const std::string& node, double wafers) {
                           if (wafers < 0.0)
                               reject("invalid-request",
                                      "market.queue_wafers." + node +
                                          " must be >= 0");
                           market.setQueueWafers(node, Wafers(wafers));
                       });
    }
    return market;
}

RequestKind
parseKind(const std::string& name)
{
    if (name == "mc_ttm")
        return RequestKind::McTtm;
    if (name == "mc_cas")
        return RequestKind::McCas;
    if (name == "sobol_ttm")
        return RequestKind::SobolTtm;
    if (name == "capacity_sweep")
        return RequestKind::CapacitySweep;
    if (name == "health")
        return RequestKind::Health;
    if (name == "stats")
        return RequestKind::Stats;
    if (name == "ensemble_ttm")
        return RequestKind::EnsembleTtm;
    if (name == "chiplet_pareto")
        return RequestKind::ChipletPareto;
    reject("unknown-kind", "unknown request kind '" + name + "'");
}

bool
isEvaluationKind(RequestKind kind)
{
    return kind == RequestKind::McTtm || kind == RequestKind::McCas ||
           kind == RequestKind::SobolTtm ||
           kind == RequestKind::CapacitySweep ||
           kind == RequestKind::EnsembleTtm ||
           kind == RequestKind::ChipletPareto;
}

} // namespace

std::vector<std::string>
designProcesses(const ChipDesign& design)
{
    std::vector<std::string> processes;
    for (const Die& die : design.dies)
        processes.push_back(die.process);
    std::sort(processes.begin(), processes.end());
    processes.erase(std::unique(processes.begin(), processes.end()),
                    processes.end());
    return processes;
}

const char*
requestKindName(RequestKind kind)
{
    switch (kind) {
    case RequestKind::McTtm: return "mc_ttm";
    case RequestKind::McCas: return "mc_cas";
    case RequestKind::SobolTtm: return "sobol_ttm";
    case RequestKind::CapacitySweep: return "capacity_sweep";
    case RequestKind::Health: return "health";
    case RequestKind::Stats: return "stats";
    case RequestKind::EnsembleTtm: return "ensemble_ttm";
    case RequestKind::ChipletPareto: return "chiplet_pareto";
    }
    return "unknown";
}

JsonLimits
ServeLimits::jsonLimits() const
{
    JsonLimits limits = JsonLimits::untrustedWire(max_request_bytes);
    limits.max_string_bytes = max_string_bytes;
    limits.max_depth = max_depth;
    return limits;
}

ParsedRequest
ParsedRequest::success(EvalRequest request)
{
    ParsedRequest parsed;
    parsed.ok = true;
    parsed.request = std::move(request);
    return parsed;
}

ParsedRequest
ParsedRequest::failure(RequestError error)
{
    ParsedRequest parsed;
    parsed.ok = false;
    parsed.error = std::move(error);
    return parsed;
}

ParsedRequest
parseRequestLine(const std::string& line, const ServeLimits& limits)
{
    // Best-effort id echo: filled in as soon as the id parses, so even
    // later failures correlate with the client's request.
    std::string echoed_id;
    try {
        if (line.size() > limits.max_request_bytes)
            reject("limit-exceeded",
                   "request line of " + std::to_string(line.size()) +
                       " bytes exceeds the " +
                       std::to_string(limits.max_request_bytes) +
                       "-byte limit");
        JsonValue doc;
        try {
            doc = parseJson(line, limits.jsonLimits());
        } catch (const ModelError& error) {
            reject("malformed-json", error.what());
        }
        if (doc.kind() != JsonValue::Kind::Object)
            reject("invalid-request", "request must be a JSON object");
        requireOnlyKeys(doc,
                        {"id", "kind", "design", "market", "n_chips",
                         "seed", "samples", "band", "grid", "deadline_s",
                         "no_cache", "ensemble", "chiplet"},
                        "request");
        EvalRequest request;
        if (doc.has("id")) {
            request.id = asStringField(doc.at("id"), "id");
            echoed_id = request.id;
        }
        if (!doc.has("kind"))
            reject("invalid-request", "request is missing 'kind'");
        request.kind = parseKind(asStringField(doc.at("kind"), "kind"));

        if (isEvaluationKind(request.kind)) {
            if (!doc.has("design"))
                reject("invalid-request", "request is missing 'design'");
            request.design = parseDesign(doc.at("design"), limits);
            if (doc.has("market"))
                request.market = parseMarket(doc.at("market"));
            if (doc.has("n_chips"))
                request.n_chips =
                    positiveNumber(doc.at("n_chips"), "n_chips");
            if (doc.has("seed"))
                request.seed = asCount(doc.at("seed"), "seed");
            if (doc.has("samples")) {
                const std::uint64_t samples =
                    asCount(doc.at("samples"), "samples");
                if (samples == 0)
                    reject("invalid-request", "field 'samples' must be >= 1");
                if (samples > limits.max_samples)
                    reject("limit-exceeded",
                           "samples " + std::to_string(samples) +
                               " exceeds the per-request limit of " +
                               std::to_string(limits.max_samples));
                request.samples = static_cast<std::size_t>(samples);
            }
            if (doc.has("band")) {
                request.band = positiveNumber(doc.at("band"), "band");
                if (request.band >= 1.0)
                    reject("invalid-request",
                           "field 'band' must be in (0, 1)");
            }
            if (doc.has("ensemble")) {
                if (request.kind != RequestKind::EnsembleTtm)
                    reject("invalid-request",
                           "field 'ensemble' is only valid for "
                           "ensemble_ttm");
                EnsembleSpecParse parsed =
                    parseEnsembleSpec(doc.at("ensemble"));
                if (!parsed.ok()) {
                    // Count before moving: argument evaluation order
                    // is unspecified, so .size() inside the call may
                    // see an already-moved-from vector.
                    const std::size_t problems = parsed.errors.size();
                    reject("invalid-request",
                           "ensemble spec fails validation with " +
                               std::to_string(problems) + " problem(s)",
                           std::move(parsed.errors));
                }
                request.ensemble = std::move(parsed.spec);
            } else if (request.kind == RequestKind::EnsembleTtm) {
                // Default spec: moderate disruption processes on every
                // process node the design uses.
                request.ensemble =
                    EnsembleSpec::defaultsFor(designProcesses(request.design));
            }
            if (doc.has("chiplet")) {
                if (request.kind != RequestKind::ChipletPareto)
                    reject("invalid-request",
                           "field 'chiplet' is only valid for "
                           "chiplet_pareto");
                ChipletSpecParse parsed =
                    parseChipletSweepSpec(doc.at("chiplet"));
                if (!parsed.ok()) {
                    const std::size_t problems = parsed.errors.size();
                    reject("invalid-request",
                           "chiplet spec fails validation with " +
                               std::to_string(problems) + " problem(s)",
                           std::move(parsed.errors));
                }
                request.chiplet = std::move(parsed.spec);
            } else if (request.kind == RequestKind::ChipletPareto) {
                // Default sweep: the design's own process nodes.
                request.chiplet = ChipletSweepSpec::defaultsFor(
                    designProcesses(request.design));
            }
            if (doc.has("grid")) {
                if (request.kind != RequestKind::CapacitySweep)
                    reject("invalid-request",
                           "field 'grid' is only valid for capacity_sweep");
                const JsonValue& grid = doc.at("grid");
                if (grid.kind() != JsonValue::Kind::Array ||
                    grid.asArray().empty())
                    reject("invalid-request",
                           "field 'grid' must be a non-empty array");
                if (grid.asArray().size() > limits.max_grid_points)
                    reject("limit-exceeded",
                           "grid of " +
                               std::to_string(grid.asArray().size()) +
                               " points exceeds the limit of " +
                               std::to_string(limits.max_grid_points));
                for (std::size_t i = 0; i < grid.asArray().size(); ++i)
                    request.grid.push_back(positiveNumber(
                        grid.asArray()[i],
                        "grid[" + std::to_string(i) + "]"));
            }
            if (doc.has("deadline_s")) {
                request.deadline_s = nonNegativeNumber(doc.at("deadline_s"),
                                                       "deadline_s");
                // Clamp rather than reject: a generous budget is not a
                // hostile request, the server just won't honor more.
                if (request.deadline_s > limits.max_deadline_s)
                    request.deadline_s = limits.max_deadline_s;
            }
            if (doc.has("no_cache"))
                request.no_cache =
                    asBoolField(doc.at("no_cache"), "no_cache");
            if (request.kind == RequestKind::CapacitySweep &&
                request.grid.empty()) {
                // Default grid: 10% steps up to full capacity.
                for (int i = 1; i <= 10; ++i)
                    request.grid.push_back(0.1 * i);
            }
        }
        return ParsedRequest::success(std::move(request));
    } catch (const ParseFailure& failure) {
        RequestError error = failure.error;
        error.id = echoed_id;
        return ParsedRequest::failure(std::move(error));
    } catch (const std::exception& unexpected) {
        // Belt and braces: no parse path should throw anything else,
        // but a client must still get a structured reply if one does.
        RequestError error;
        error.id = echoed_id;
        error.code = "internal";
        error.message = unexpected.what();
        return ParsedRequest::failure(std::move(error));
    }
}

namespace {

void
writeIdField(JsonWriter& json, const std::string& id)
{
    json.field("id", id);
}

} // namespace

std::string
errorReply(const RequestError& error)
{
    JsonWriter json;
    json.beginObject();
    writeIdField(json, error.id);
    json.field("status", "error");
    json.key("error");
    json.beginObject();
    json.field("code", error.code);
    json.field("message", error.message);
    if (!error.violations.empty()) {
        json.key("violations");
        json.beginArray();
        for (const std::string& violation : error.violations)
            json.value(violation);
        json.endArray();
    }
    json.endObject();
    json.endObject();
    return json.str();
}

std::string
overloadedReply(const std::string& id, std::size_t queue_depth,
                std::size_t queue_capacity)
{
    JsonWriter json;
    json.beginObject();
    writeIdField(json, id);
    json.field("status", "overloaded");
    json.key("error");
    json.beginObject();
    json.field("code", "overloaded");
    json.field("message",
               "admission queue full (" + std::to_string(queue_depth) +
                   "/" + std::to_string(queue_capacity) +
                   " in flight); retry with backoff");
    json.endObject();
    json.endObject();
    return json.str();
}

std::string
drainingReply(const std::string& id)
{
    JsonWriter json;
    json.beginObject();
    writeIdField(json, id);
    json.field("status", "draining");
    json.key("error");
    json.beginObject();
    json.field("code", "draining");
    json.field("message",
               "server is draining and no longer admits work");
    json.endObject();
    json.endObject();
    return json.str();
}

std::string
resultReply(const std::string& id, RequestKind kind,
            const std::string& status, const std::string& cache,
            const std::string& key, const std::string& payload)
{
    JsonWriter json;
    json.beginObject();
    writeIdField(json, id);
    json.field("status", status);
    json.field("kind", requestKindName(kind));
    if (!cache.empty())
        json.field("cache", cache);
    if (!key.empty())
        json.field("key", key);
    json.key("result");
    json.raw(payload);
    json.endObject();
    return json.str();
}

} // namespace ttmcas::serve
