#include "opt/chiplet_io.hh"

#include <cmath>
#include <cstdint>

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

/**
 * A non-empty array of integers into @p out, or leave the fallback
 * untouched. Length is capped at kMaxChipletCandidates up front so a
 * hostile million-entry axis fails with one message, not a million.
 */
void
readIntArray(const JsonValue& object, const std::string& key,
             const std::string& context,
             std::vector<std::string>& errors, std::vector<int>& out)
{
    if (!object.has(key))
        return;
    const JsonValue& value = object.at(key);
    if (value.kind() != JsonValue::Kind::Array) {
        errors.push_back(context + "." + key +
                         " must be an array of integers");
        return;
    }
    const auto& items = value.asArray();
    if (items.empty() || items.size() > kMaxChipletCandidates) {
        errors.push_back(context + "." + key + " must have 1 to " +
                         std::to_string(kMaxChipletCandidates) +
                         " entries");
        return;
    }
    std::vector<int> parsed;
    parsed.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string slot =
            context + "." + key + "[" + std::to_string(i) + "]";
        if (!isNumber(items[i])) {
            errors.push_back(slot + " must be an integer");
            return;
        }
        const double number = items[i].asNumber();
        if (!std::isfinite(number) || number != std::floor(number) ||
            number < -1.0e9 || number > 1.0e9) {
            errors.push_back(slot + " must be an integer");
            return;
        }
        parsed.push_back(static_cast<int>(number));
    }
    out = std::move(parsed);
}

/** A non-empty array of finite numbers, same contract as readIntArray. */
void
readDoubleArray(const JsonValue& object, const std::string& key,
                const std::string& context,
                std::vector<std::string>& errors,
                std::vector<double>& out)
{
    if (!object.has(key))
        return;
    const JsonValue& value = object.at(key);
    if (value.kind() != JsonValue::Kind::Array) {
        errors.push_back(context + "." + key +
                         " must be an array of numbers");
        return;
    }
    const auto& items = value.asArray();
    if (items.empty() || items.size() > kMaxChipletCandidates) {
        errors.push_back(context + "." + key + " must have 1 to " +
                         std::to_string(kMaxChipletCandidates) +
                         " entries");
        return;
    }
    std::vector<double> parsed;
    parsed.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::string slot =
            context + "." + key + "[" + std::to_string(i) + "]";
        if (!isNumber(items[i]) ||
            !std::isfinite(items[i].asNumber())) {
            errors.push_back(slot + " must be a finite number");
            return;
        }
        parsed.push_back(items[i].asNumber());
    }
    out = std::move(parsed);
}

void
parseTierOverride(const JsonValue& value, const std::string& context,
                  ChipletCostParams& cost,
                  std::vector<std::string>& errors)
{
    if (value.kind() != JsonValue::Kind::Object) {
        errors.push_back(context + " must be an object");
        return;
    }
    checkOnlyKeys(value,
                  {"cost_per_mm2", "fixed_cost",
                   "bond_cost_per_chiplet", "bond_yield", "design_nre"},
                  context, errors);
    // Start the override from the tier defaults so partial overrides
    // tune one constant without zeroing the rest.
    PackagingTierParams tier = defaultTierParams(cost.tier);
    tier.cost_per_mm2 = readNumber(value, "cost_per_mm2",
                                   tier.cost_per_mm2, context, errors);
    tier.fixed_cost =
        readNumber(value, "fixed_cost", tier.fixed_cost, context, errors);
    tier.bond_cost_per_chiplet =
        readNumber(value, "bond_cost_per_chiplet",
                   tier.bond_cost_per_chiplet, context, errors);
    tier.bond_yield =
        readNumber(value, "bond_yield", tier.bond_yield, context, errors);
    tier.design_nre =
        readNumber(value, "design_nre", tier.design_nre, context, errors);
    cost.tier_override = tier;
}

void
parseCost(const JsonValue& value, ChipletCostParams& cost,
          std::vector<std::string>& errors)
{
    const std::string context = "chiplet.cost";
    if (value.kind() != JsonValue::Kind::Object) {
        errors.push_back(context + " must be an object");
        return;
    }
    // No "spare_chiplets" here on purpose: the redundancy axis owns
    // spares, so pinning them in the cost block is an unknown field.
    checkOnlyKeys(value,
                  {"tier", "tier_override", "kgd_test_cost_per_die",
                   "kgd_test_cost_per_mm2", "field_failure_prob",
                   "ip_nre_per_type", "redundancy_nre_per_spare"},
                  context, errors);
    if (value.has("tier")) {
        const JsonValue& tier = value.at("tier");
        if (tier.kind() != JsonValue::Kind::String) {
            errors.push_back(context + ".tier must be a string");
        } else if (const auto parsed =
                       parsePackagingTier(tier.asString())) {
            cost.tier = *parsed;
        } else {
            errors.push_back(context +
                             ".tier must be one of \"organic\", "
                             "\"interposer\", \"fanout\"");
        }
    }
    // Tier must be settled before the override snapshots its defaults.
    if (value.has("tier_override"))
        parseTierOverride(value.at("tier_override"),
                          context + ".tier_override", cost, errors);
    cost.kgd_test_cost_per_die =
        readNumber(value, "kgd_test_cost_per_die",
                   cost.kgd_test_cost_per_die, context, errors);
    cost.kgd_test_cost_per_mm2 =
        readNumber(value, "kgd_test_cost_per_mm2",
                   cost.kgd_test_cost_per_mm2, context, errors);
    cost.field_failure_prob =
        readNumber(value, "field_failure_prob",
                   cost.field_failure_prob, context, errors);
    cost.ip_nre_per_type = readNumber(value, "ip_nre_per_type",
                                      cost.ip_nre_per_type, context,
                                      errors);
    cost.redundancy_nre_per_spare =
        readNumber(value, "redundancy_nre_per_spare",
                   cost.redundancy_nre_per_spare, context, errors);
}

} // namespace

ChipletSpecParse
parseChipletSweepSpec(const JsonValue& value)
{
    ChipletSpecParse parse;
    std::vector<std::string>& errors = parse.errors;
    if (value.kind() != JsonValue::Kind::Object) {
        errors.push_back("chiplet spec must be a JSON object");
        return parse;
    }
    checkOnlyKeys(value,
                  {"partitions", "nodes", "redundancy",
                   "split_fractions", "secondary_node", "cost"},
                  "chiplet", errors);
    ChipletSweepSpec& spec = parse.spec;
    readIntArray(value, "partitions", "chiplet", errors,
                 spec.partitions);
    if (value.has("nodes")) {
        const JsonValue& nodes = value.at("nodes");
        if (nodes.kind() != JsonValue::Kind::Array) {
            errors.push_back(
                "chiplet.nodes must be an array of strings");
        } else if (nodes.asArray().empty() ||
                   nodes.asArray().size() > kMaxChipletCandidates) {
            errors.push_back("chiplet.nodes must have 1 to " +
                             std::to_string(kMaxChipletCandidates) +
                             " entries");
        } else {
            for (std::size_t i = 0; i < nodes.asArray().size(); ++i) {
                const JsonValue& node = nodes.asArray()[i];
                if (node.kind() != JsonValue::Kind::String) {
                    errors.push_back("chiplet.nodes[" +
                                     std::to_string(i) +
                                     "] must be a string");
                    spec.nodes.clear();
                    break;
                }
                spec.nodes.push_back(node.asString());
            }
        }
    }
    readIntArray(value, "redundancy", "chiplet", errors,
                 spec.redundancy);
    readDoubleArray(value, "split_fractions", "chiplet", errors,
                    spec.split_fractions);
    if (value.has("secondary_node")) {
        const JsonValue& node = value.at("secondary_node");
        if (node.kind() != JsonValue::Kind::String)
            errors.push_back("chiplet.secondary_node must be a string");
        else
            spec.secondary_node = node.asString();
    }
    if (value.has("cost"))
        parseCost(value.at("cost"), spec.cost, errors);
    // Semantic validation only once the document itself was sound;
    // structural errors already name the offending fields.
    if (errors.empty()) {
        for (const std::string& violation : spec.violations())
            errors.push_back("chiplet: " + violation);
    }
    return parse;
}

ChipletSpecParse
parseChipletSweepSpecText(const std::string& text,
                          const JsonLimits& limits)
{
    JsonValue document;
    try {
        document = parseJson(text, limits);
    } catch (const ModelError& error) {
        ChipletSpecParse parse;
        parse.errors.push_back(std::string("malformed-json: ") +
                               error.what());
        return parse;
    }
    return parseChipletSweepSpec(document);
}

void
writeChipletParetoResult(JsonWriter& json,
                         const ChipletParetoResult& result)
{
    json.beginObject();
    json.field("candidates_requested",
               static_cast<std::uint64_t>(result.candidates_requested));
    json.field("candidates_completed",
               static_cast<std::uint64_t>(result.candidates_completed));
    json.key("points");
    json.beginArray();
    for (const ChipletPoint& point : result.points) {
        json.beginObject();
        json.field("index", static_cast<std::uint64_t>(point.index));
        json.field("partitions",
                   static_cast<std::uint64_t>(
                       point.candidate.partitions));
        json.field("node", point.candidate.node);
        json.field("spares",
                   static_cast<std::uint64_t>(point.candidate.spares));
        json.field("split_fraction", point.candidate.split_fraction);
        json.field("ttm_weeks", point.ttm_weeks);
        json.field("cas", point.cas);
        json.field("cost", point.cost);
        json.endObject();
    }
    json.endArray();
    json.key("frontier");
    json.beginArray();
    for (std::size_t index : result.frontier)
        json.value(static_cast<std::uint64_t>(index));
    json.endArray();
    json.endObject();
}

} // namespace ttmcas
