#include "serve/request.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>
#include <utility>

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

/**
 * The name of a request field, spelled out only when the field is
 * rejected: a valid request never pays for "dies[0].process". The text
 * is the parent, then "[index]" when there is one, then ".name"
 * ("n_chips", "dies[0]", "dies[0].process", "market.capacity.7nm").
 */
class Field
{
  public:
    Field(const char* name) : _name(name) {}
    Field(std::string_view name) : _name(name) {}
    Field(std::string_view parent, std::string_view name)
        : _parent(parent), _name(name)
    {}
    Field(std::string_view parent, std::size_t index)
        : _parent(parent), _index(index)
    {}

    /** The field @p name inside this one. */
    Field member(std::string_view name) const
    {
        Field field(_parent, _index);
        field._name = name;
        return field;
    }

    std::string text() const
    {
        std::string out(_parent);
        if (_index != kNoIndex)
            out += "[" + std::to_string(_index) + "]";
        if (!_name.empty()) {
            if (!out.empty())
                out += '.';
            out += _name;
        }
        return out;
    }

  private:
    static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

    std::string_view _parent;
    std::size_t _index = kNoIndex;
    std::string_view _name;
};

double
asFiniteNumber(const JsonValue& value, const Field& field)
{
    if (value.kind() != JsonValue::Kind::Number)
        reject("invalid-request",
               "field '" + field.text() + "' must be a number");
    const double number = value.asNumber();
    if (!std::isfinite(number))
        reject("invalid-request",
               "field '" + field.text() + "' must be finite");
    return number;
}

double
positiveNumber(const JsonValue& value, const Field& field)
{
    const double number = asFiniteNumber(value, field);
    if (number <= 0.0)
        reject("invalid-request", "field '" + field.text() + "' must be > 0");
    return number;
}

double
nonNegativeNumber(const JsonValue& value, const Field& field)
{
    const double number = asFiniteNumber(value, field);
    if (number < 0.0)
        reject("invalid-request",
               "field '" + field.text() + "' must be >= 0");
    return number;
}

std::uint64_t
asCount(const JsonValue& value, const Field& field)
{
    const double number = nonNegativeNumber(value, field);
    if (number != std::floor(number) || number > 9.007199254740992e15)
        reject("invalid-request", "field '" + field.text() +
                                      "' must be a non-negative integer");
    return static_cast<std::uint64_t>(number);
}

const std::string&
asStringField(const JsonValue& value, const Field& field)
{
    if (value.kind() != JsonValue::Kind::String)
        reject("invalid-request",
               "field '" + field.text() + "' must be a string");
    return value.asString();
}

bool
asBoolField(const JsonValue& value, const Field& field)
{
    if (value.kind() != JsonValue::Kind::Boolean)
        reject("invalid-request",
               "field '" + field.text() + "' must be a boolean");
    return value.asBool();
}

void
requireObject(const JsonValue& value, const Field& field)
{
    if (value.kind() != JsonValue::Kind::Object)
        reject("invalid-request",
               "field '" + field.text() + "' must be an object");
}

/**
 * The members of @p object named in @p names, in that order (nullptr
 * for an absent one). The same pass rejects the first member that
 * @p names does not list, so a typo'd field never silently defaults.
 */
template <std::size_t N>
std::array<const JsonValue*, N>
knownMembers(const JsonValue& object,
             const std::array<std::string_view, N>& names,
             const Field& context)
{
    std::array<const JsonValue*, N> found{};
    for (const JsonValue& member : object.members()) {
        const auto name = std::find(names.begin(), names.end(), member.key());
        if (name == names.end())
            reject("invalid-request", "unknown field '" + member.key() +
                                          "' in " + context.text());
        found[static_cast<std::size_t>(name - names.begin())] = &member;
    }
    return found;
}

/** @p value, the member @p name; rejected as missing when absent. */
const JsonValue&
required(const JsonValue* value, std::string_view name,
         const Field& context)
{
    if (value == nullptr)
        reject("invalid-request", context.text() + " is missing '" +
                                      std::string(name) + "'");
    return *value;
}

/** @name The fields each request object may carry */
///@{
constexpr std::array<std::string_view, 13> kRequestFields = {
    "id",   "kind", "design",     "market",   "n_chips",  "seed",   "samples",
    "band", "grid", "deadline_s", "no_cache", "ensemble", "chiplet"};
constexpr std::array<std::string_view, 3> kDesignFields = {
    "name", "design_weeks", "dies"};
constexpr std::array<std::string_view, 8> kDieFields = {
    "name", "process", "total_transistors", "unique_transistors",
    "count_per_package", "area_mm2", "min_area_mm2", "yield_override"};
constexpr std::array<std::string_view, 4> kMarketFields = {
    "global_capacity", "capacity", "queue_weeks", "queue_wafers"};
///@}

Die
parseDie(const JsonValue& value, std::size_t index)
{
    const Field context("dies", index);
    requireObject(value, context);
    const auto [name, process, total, unique, count, area, min_area,
                yield] = knownMembers(value, kDieFields, context);
    Die die;
    if (name != nullptr)
        die.name = asStringField(*name, context.member("name"));
    else
        die.name = "die" + std::to_string(index);
    die.process = asStringField(required(process, "process", context),
                                context.member("process"));
    die.total_transistors =
        asFiniteNumber(required(total, "total_transistors", context),
                       context.member("total_transistors"));
    die.unique_transistors =
        asFiniteNumber(required(unique, "unique_transistors", context),
                       context.member("unique_transistors"));
    if (count != nullptr)
        die.count_per_package =
            asFiniteNumber(*count, context.member("count_per_package"));
    if (area != nullptr)
        die.area_override =
            SquareMm(asFiniteNumber(*area, context.member("area_mm2")));
    if (min_area != nullptr)
        die.min_area = SquareMm(
            asFiniteNumber(*min_area, context.member("min_area_mm2")));
    if (yield != nullptr)
        die.yield_override =
            asFiniteNumber(*yield, context.member("yield_override"));
    return die;
}

ChipDesign
parseDesign(const JsonValue& value, const ServeLimits& limits)
{
    const Field context("design");
    requireObject(value, context);
    const auto [name, weeks, dies_field] =
        knownMembers(value, kDesignFields, context);
    ChipDesign design;
    if (name != nullptr)
        design.name = asStringField(*name, Field("design", "name"));
    else
        design.name = "request-design";
    if (weeks != nullptr)
        design.design_time =
            Weeks(asFiniteNumber(*weeks, Field("design", "design_weeks")));
    const JsonValue& dies = required(dies_field, "dies", context);
    if (dies.kind() != JsonValue::Kind::Array)
        reject("invalid-request", "design.dies must be an array");
    const std::vector<JsonValue>& items = dies.asArray();
    if (items.empty())
        reject("invalid-request", "design.dies must not be empty");
    if (items.size() > limits.max_dies)
        reject("limit-exceeded",
               "design has " + std::to_string(items.size()) +
                   " dies, more than the limit of " +
                   std::to_string(limits.max_dies));
    design.dies.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        design.dies.push_back(parseDie(items[i], i));

    // All-at-once semantic validation: one reply names every problem.
    const std::vector<std::string> violations = design.violations();
    if (!violations.empty())
        reject("invalid-design",
               "design fails validation with " +
                   std::to_string(violations.size()) + " violation(s)",
               violations);
    return design;
}

/**
 * Read a node -> non-negative number map at @p field and hand each
 * entry to @p set.
 */
template <typename Set>
void
parseMarketMap(const JsonValue& object, std::string_view field, Set set)
{
    requireObject(object, field);
    for (const JsonValue& entry : object.members()) {
        const std::string& node = entry.key();
        if (node.empty())
            reject("invalid-request",
                   std::string(field) + " contains an empty node name");
        const Field name(field, node);
        const double number = asFiniteNumber(entry, name);
        if (number < 0.0)
            reject("invalid-request", name.text() + " must be >= 0");
        set(node, number);
    }
}

MarketConditions
parseMarket(const JsonValue& value)
{
    requireObject(value, "market");
    const auto [global, capacity, weeks, wafers] =
        knownMembers(value, kMarketFields, "market");
    MarketConditions market;
    if (global != nullptr) {
        market.setGlobalCapacityFactor(
            nonNegativeNumber(*global, Field("market", "global_capacity")));
    }
    if (capacity != nullptr) {
        parseMarketMap(*capacity, "market.capacity",
                       [&](const std::string& node, double factor) {
                           market.setCapacityFactor(node, factor);
                       });
    }
    if (weeks != nullptr) {
        parseMarketMap(*weeks, "market.queue_weeks",
                       [&](const std::string& node, double queue) {
                           market.setQueueWeeks(node, Weeks(queue));
                       });
    }
    if (wafers != nullptr) {
        parseMarketMap(*wafers, "market.queue_wafers",
                       [&](const std::string& node, double queue) {
                           market.setQueueWafers(node, Wafers(queue));
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
parseRequestLine(const std::string& line, const ServeLimits& limits)
{
    // One result object on every path, so it is built in place.
    ParsedRequest parsed;
    EvalRequest& request = parsed.request;
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
        const auto [id, kind, design, market, n_chips, seed, samples, band,
                    grid, deadline, no_cache, ensemble, chiplet] =
            knownMembers(doc, kRequestFields, "request");
        // Best-effort id echo: set as soon as the id parses, so even
        // later failures correlate with the client's request.
        if (id != nullptr)
            request.id = asStringField(*id, "id");
        request.kind =
            parseKind(asStringField(required(kind, "kind", "request"), "kind"));

        if (isEvaluationKind(request.kind)) {
            request.design =
                parseDesign(required(design, "design", "request"), limits);
            if (market != nullptr)
                request.market = parseMarket(*market);
            if (n_chips != nullptr)
                request.n_chips = positiveNumber(*n_chips, "n_chips");
            if (seed != nullptr)
                request.seed = asCount(*seed, "seed");
            if (samples != nullptr) {
                const std::uint64_t count = asCount(*samples, "samples");
                if (count == 0)
                    reject("invalid-request", "field 'samples' must be >= 1");
                if (count > limits.max_samples)
                    reject("limit-exceeded",
                           "samples " + std::to_string(count) +
                               " exceeds the per-request limit of " +
                               std::to_string(limits.max_samples));
                request.samples = static_cast<std::size_t>(count);
            }
            if (band != nullptr) {
                request.band = positiveNumber(*band, "band");
                if (request.band >= 1.0)
                    reject("invalid-request",
                           "field 'band' must be in (0, 1)");
            }
            if (ensemble != nullptr) {
                if (request.kind != RequestKind::EnsembleTtm)
                    reject("invalid-request",
                           "field 'ensemble' is only valid for "
                           "ensemble_ttm");
                EnsembleSpecParse spec = parseEnsembleSpec(*ensemble);
                if (!spec.ok()) {
                    // Count before moving: argument evaluation order
                    // is unspecified, so .size() inside the call may
                    // see an already-moved-from vector.
                    const std::size_t problems = spec.errors.size();
                    reject("invalid-request",
                           "ensemble spec fails validation with " +
                               std::to_string(problems) + " problem(s)",
                           std::move(spec.errors));
                }
                request.ensemble = std::move(spec.spec);
            } else if (request.kind == RequestKind::EnsembleTtm) {
                // Default spec: moderate disruption processes on every
                // process node the design uses.
                request.ensemble =
                    EnsembleSpec::defaultsFor(designProcesses(request.design));
            }
            if (chiplet != nullptr) {
                if (request.kind != RequestKind::ChipletPareto)
                    reject("invalid-request",
                           "field 'chiplet' is only valid for "
                           "chiplet_pareto");
                ChipletSpecParse spec = parseChipletSweepSpec(*chiplet);
                if (!spec.ok()) {
                    const std::size_t problems = spec.errors.size();
                    reject("invalid-request",
                           "chiplet spec fails validation with " +
                               std::to_string(problems) + " problem(s)",
                           std::move(spec.errors));
                }
                request.chiplet = std::move(spec.spec);
            } else if (request.kind == RequestKind::ChipletPareto) {
                // Default sweep: the design's own process nodes.
                request.chiplet = ChipletSweepSpec::defaultsFor(
                    designProcesses(request.design));
            }
            if (grid != nullptr) {
                if (request.kind != RequestKind::CapacitySweep)
                    reject("invalid-request",
                           "field 'grid' is only valid for capacity_sweep");
                if (grid->kind() != JsonValue::Kind::Array ||
                    grid->asArray().empty())
                    reject("invalid-request",
                           "field 'grid' must be a non-empty array");
                const std::vector<JsonValue>& points = grid->asArray();
                if (points.size() > limits.max_grid_points)
                    reject("limit-exceeded",
                           "grid of " + std::to_string(points.size()) +
                               " points exceeds the limit of " +
                               std::to_string(limits.max_grid_points));
                request.grid.reserve(points.size());
                for (std::size_t i = 0; i < points.size(); ++i)
                    request.grid.push_back(
                        positiveNumber(points[i], Field("grid", i)));
            }
            if (deadline != nullptr) {
                request.deadline_s = nonNegativeNumber(*deadline, "deadline_s");
                // Clamp rather than reject: a generous budget is not a
                // hostile request, the server just won't honor more.
                if (request.deadline_s > limits.max_deadline_s)
                    request.deadline_s = limits.max_deadline_s;
            }
            if (no_cache != nullptr)
                request.no_cache = asBoolField(*no_cache, "no_cache");
            if (request.kind == RequestKind::CapacitySweep &&
                request.grid.empty()) {
                // Default grid: 10% steps up to full capacity.
                for (int i = 1; i <= 10; ++i)
                    request.grid.push_back(0.1 * i);
            }
        }
        parsed.ok = true;
        return parsed;
    } catch (const ParseFailure& failure) {
        parsed.error = failure.error;
    } catch (const std::exception& unexpected) {
        // Belt and braces: no parse path should throw anything else,
        // but a client must still get a structured reply if one does.
        parsed.error.code = "internal";
        parsed.error.message = unexpected.what();
    }
    // A failure echoes the id if it parsed, and carries no half-read
    // request.
    parsed.error.id = std::move(request.id);
    request = EvalRequest{};
    return parsed;
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
    return std::move(json).str();
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
    return std::move(json).str();
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
    return std::move(json).str();
}

std::string
resultReply(const std::string& id, RequestKind kind,
            const std::string& status, const std::string& cache,
            const std::string& key, const std::string& payload)
{
    // The envelope's field names and punctuation; an id that needs
    // escaping is the only way past this, at the cost of one regrowth.
    constexpr std::size_t kEnvelopeBytes = 96;
    JsonWriter json;
    json.reserve(kEnvelopeBytes + id.size() + status.size() + cache.size() +
                 key.size() + payload.size());
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
    return std::move(json).str();
}

} // namespace ttmcas::serve
