#include "core/ensemble_io.hh"

#include <cmath>

#include "support/error.hh"

namespace ttmcas {

namespace {

/** Error-collecting field readers: push a message, keep parsing. */

bool
isNumber(const JsonValue& value)
{
    return value.kind() == JsonValue::Kind::Number;
}

double
readNumber(const JsonValue& object, const std::string& key,
           double fallback, const std::string& context,
           std::vector<std::string>& errors)
{
    if (!object.has(key))
        return fallback;
    const JsonValue& value = object.at(key);
    if (!isNumber(value)) {
        errors.push_back(context + "." + key + " must be a number");
        return fallback;
    }
    const double number = value.asNumber();
    if (!std::isfinite(number)) {
        errors.push_back(context + "." + key + " must be finite");
        return fallback;
    }
    return number;
}

void
checkOnlyKeys(const JsonValue& object,
              std::initializer_list<const char*> allowed,
              const std::string& context,
              std::vector<std::string>& errors)
{
    for (const JsonValue& member : object.members()) {
        const std::string& key = member.key();
        bool known = false;
        for (const char* name : allowed) {
            if (key == name) {
                known = true;
                break;
            }
        }
        if (!known)
            errors.push_back("unknown field '" + key + "' in " +
                             context);
    }
}

/** A fixed-length array of finite numbers, or nullopt-ish failure. */
bool
readNumberArray(const JsonValue& value, std::size_t expected,
                const std::string& context,
                std::vector<std::string>& errors, double* out)
{
    if (value.kind() != JsonValue::Kind::Array ||
        value.asArray().size() != expected) {
        errors.push_back(context + " must be an array of " +
                         std::to_string(expected) + " numbers");
        return false;
    }
    for (std::size_t i = 0; i < expected; ++i) {
        const JsonValue& item = value.asArray()[i];
        if (!isNumber(item) || !std::isfinite(item.asNumber())) {
            errors.push_back(context + "[" + std::to_string(i) +
                             "] must be a finite number");
            return false;
        }
        out[i] = item.asNumber();
    }
    return true;
}

void
parseMarkov(const JsonValue& value, const std::string& context,
            MarkovRegimeParams& markov,
            std::vector<std::string>& errors)
{
    if (value.kind() != JsonValue::Kind::Object) {
        errors.push_back(context + " must be an object");
        return;
    }
    checkOnlyKeys(value,
                  {"transition", "capacity", "recovery_ramp_weeks",
                   "recovery_ramp_steps", "initial"},
                  context, errors);
    if (value.has("transition")) {
        const JsonValue& rows = value.at("transition");
        if (rows.kind() != JsonValue::Kind::Array ||
            rows.asArray().size() != kRegimeCount) {
            errors.push_back(context + ".transition must be an array of " +
                             std::to_string(kRegimeCount) + " rows");
        } else {
            for (std::size_t r = 0; r < kRegimeCount; ++r)
                readNumberArray(rows.asArray()[r], kRegimeCount,
                                context + ".transition[" +
                                    std::to_string(r) + "]",
                                errors, markov.transition[r].data());
        }
    }
    if (value.has("capacity"))
        readNumberArray(value.at("capacity"), kRegimeCount,
                        context + ".capacity", errors,
                        markov.capacity.data());
    markov.recovery_ramp_weeks =
        readNumber(value, "recovery_ramp_weeks",
                   markov.recovery_ramp_weeks, context, errors);
    if (value.has("recovery_ramp_steps")) {
        const double steps = readNumber(value, "recovery_ramp_steps",
                                        markov.recovery_ramp_steps,
                                        context, errors);
        if (steps != std::floor(steps) || steps < 1.0 || steps > 64.0)
            errors.push_back(context +
                             ".recovery_ramp_steps must be an integer "
                             "in [1, 64]");
        else
            markov.recovery_ramp_steps = static_cast<int>(steps);
    }
    if (value.has("initial")) {
        const JsonValue& initial = value.at("initial");
        if (initial.kind() != JsonValue::Kind::String) {
            errors.push_back(context + ".initial must be a string");
        } else if (initial.asString() == "nominal") {
            markov.initial = Regime::Nominal;
        } else if (initial.asString() == "constrained") {
            markov.initial = Regime::Constrained;
        } else if (initial.asString() == "outage") {
            markov.initial = Regime::Outage;
        } else {
            errors.push_back(context +
                             ".initial must be one of \"nominal\", "
                             "\"constrained\", \"outage\"");
        }
    }
}

void
parseHawkes(const JsonValue& value, const std::string& context,
            HawkesParams& hawkes, std::vector<std::string>& errors)
{
    if (value.kind() != JsonValue::Kind::Object) {
        errors.push_back(context + " must be an object");
        return;
    }
    checkOnlyKeys(value,
                  {"mu", "alpha", "beta", "shock_depth", "shock_weeks"},
                  context, errors);
    hawkes.mu = readNumber(value, "mu", hawkes.mu, context, errors);
    hawkes.alpha =
        readNumber(value, "alpha", hawkes.alpha, context, errors);
    hawkes.beta = readNumber(value, "beta", hawkes.beta, context, errors);
    if (value.has("shock_depth")) {
        double depth[2] = {hawkes.shock_depth_min,
                           hawkes.shock_depth_max};
        if (readNumberArray(value.at("shock_depth"), 2,
                            context + ".shock_depth", errors, depth)) {
            hawkes.shock_depth_min = depth[0];
            hawkes.shock_depth_max = depth[1];
        }
    }
    hawkes.shock_weeks =
        readNumber(value, "shock_weeks", hawkes.shock_weeks, context,
                   errors);
}

void
parseNode(const JsonValue& value, const std::string& node,
          DisruptionProcessParams& params,
          std::vector<std::string>& errors)
{
    const std::string context = "nodes." + node;
    if (value.kind() != JsonValue::Kind::Object) {
        errors.push_back(context + " must be an object");
        return;
    }
    checkOnlyKeys(value, {"markov", "hawkes"}, context, errors);
    // Absent sections keep member defaults: an identity regime chain
    // and mu = 0 (shocks disabled). A disabled Hawkes block must not
    // trip depth/duration validation, so defaults stay in-range.
    if (value.has("markov"))
        parseMarkov(value.at("markov"), context + ".markov",
                    params.markov, errors);
    if (value.has("hawkes"))
        parseHawkes(value.at("hawkes"), context + ".hawkes",
                    params.hawkes, errors);
}

void
writeDistribution(JsonWriter& json, const char* key,
                  const EnsembleDistribution& dist, bool present)
{
    json.key(key);
    if (!present) {
        json.null();
        return;
    }
    json.beginObject();
    json.field("mean", dist.mean);
    json.field("p5", dist.p5);
    json.field("p50", dist.p50);
    json.field("p95", dist.p95);
    json.field("ci_lo", dist.ci_lo);
    json.field("ci_hi", dist.ci_hi);
    json.endObject();
}

void
writeGroup(JsonWriter& json, const EnsembleGroup& group)
{
    json.beginObject();
    json.field("regime", group.label);
    json.field("count", static_cast<std::uint64_t>(group.count));
    writeDistribution(json, "ttm_weeks", group.ttm, group.count > 0);
    writeDistribution(json, "cas", group.cas, group.count > 0);
    json.endObject();
}

} // namespace

EnsembleSpecParse
parseEnsembleSpec(const JsonValue& value)
{
    EnsembleSpecParse parse;
    std::vector<std::string>& errors = parse.errors;
    if (value.kind() != JsonValue::Kind::Object) {
        errors.push_back("ensemble spec must be a JSON object");
        return parse;
    }
    checkOnlyKeys(value,
                  {"horizon_weeks", "step_weeks", "nodes",
                   "outage_label_fraction",
                   "constrained_label_fraction"},
                  "ensemble", errors);
    EnsembleSpec& spec = parse.spec;
    spec.horizon_weeks = readNumber(value, "horizon_weeks",
                                    spec.horizon_weeks, "ensemble",
                                    errors);
    spec.step_weeks = readNumber(value, "step_weeks", spec.step_weeks,
                                 "ensemble", errors);
    spec.outage_label_fraction =
        readNumber(value, "outage_label_fraction",
                   spec.outage_label_fraction, "ensemble", errors);
    spec.constrained_label_fraction =
        readNumber(value, "constrained_label_fraction",
                   spec.constrained_label_fraction, "ensemble", errors);
    if (value.has("nodes")) {
        const JsonValue& nodes = value.at("nodes");
        if (nodes.kind() != JsonValue::Kind::Object) {
            errors.push_back("ensemble.nodes must be an object");
        } else if (nodes.members().size() > kMaxEnsembleNodes) {
            errors.push_back(
                "ensemble.nodes has " +
                std::to_string(nodes.members().size()) +
                " entries, more than the limit of " +
                std::to_string(kMaxEnsembleNodes));
        } else {
            for (const JsonValue& member : nodes.members()) {
                const std::string& node = member.key();
                if (node.empty()) {
                    errors.push_back(
                        "ensemble.nodes contains an empty node name");
                    continue;
                }
                DisruptionProcessParams params;
                parseNode(member, node, params, errors);
                spec.nodes.emplace(node, params);
            }
        }
    }
    // Semantic validation only once the document itself was sound;
    // structural errors already name the offending fields.
    if (errors.empty()) {
        for (const std::string& violation : spec.violations())
            errors.push_back("ensemble: " + violation);
    }
    return parse;
}

EnsembleSpecParse
parseEnsembleSpecText(const std::string& text, const JsonLimits& limits)
{
    JsonValue document;
    try {
        document = parseJson(text, limits);
    } catch (const ModelError& error) {
        EnsembleSpecParse parse;
        parse.errors.push_back(std::string("malformed-json: ") +
                               error.what());
        return parse;
    }
    return parseEnsembleSpec(document);
}

void
writeEnsembleResult(JsonWriter& json, const EnsembleResult& result)
{
    json.beginObject();
    json.field("paths_requested",
               static_cast<std::uint64_t>(result.paths_requested));
    json.field("paths_completed",
               static_cast<std::uint64_t>(result.paths_completed));
    json.key("regimes");
    json.beginArray();
    for (const EnsembleGroup& group : result.regimes)
        writeGroup(json, group);
    json.endArray();
    json.key("overall");
    writeGroup(json, result.overall);
    json.endObject();
}

} // namespace ttmcas
