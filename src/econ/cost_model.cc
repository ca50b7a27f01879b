#include "econ/cost_model.hh"

#include <cmath>
#include <string>

#include "support/error.hh"
#include "support/outcome.hh"

namespace ttmcas {

namespace {

/** Largest spare count the binomial redundancy model accepts. */
constexpr int kMaxSpareChiplets = 16;

/**
 * P[at most @p tolerated of @p placed independent events fire], each
 * with probability @p p_fail — the Liu redundancy tail shared by the
 * assembly-yield and field-survival terms. Exact small-integer
 * binomials (C(n,i) built by integer-ratio recurrence), so unit pins
 * can reproduce it by hand.
 */
double
binomialTailAtMost(int placed, int tolerated, double p_fail)
{
    const double p_ok = 1.0 - p_fail;
    double tail = 0.0;
    double comb = 1.0; // C(placed, 0)
    for (int i = 0; i <= tolerated; ++i) {
        if (i > 0)
            comb = comb * static_cast<double>(placed - i + 1) /
                   static_cast<double>(i);
        tail += comb * std::pow(p_fail, static_cast<double>(i)) *
                std::pow(p_ok, static_cast<double>(placed - i));
    }
    return tail;
}

void
requireFiniteNonNegative(std::vector<std::string>& problems, double value,
                         const char* name)
{
    if (!std::isfinite(value) || value < 0.0)
        problems.push_back(std::string(name) +
                           " must be finite and >= 0");
}

} // namespace

const char*
packagingTierName(PackagingTier tier)
{
    switch (tier) {
    case PackagingTier::kOrganicSubstrate:
        return "organic";
    case PackagingTier::kSiliconInterposer:
        return "interposer";
    case PackagingTier::kFanOut:
        return "fanout";
    }
    return "organic";
}

std::optional<PackagingTier>
parsePackagingTier(const std::string& name)
{
    if (name == "organic")
        return PackagingTier::kOrganicSubstrate;
    if (name == "interposer")
        return PackagingTier::kSiliconInterposer;
    if (name == "fanout")
        return PackagingTier::kFanOut;
    return std::nullopt;
}

PackagingTierParams
defaultTierParams(PackagingTier tier)
{
    PackagingTierParams params;
    switch (tier) {
    case PackagingTier::kOrganicSubstrate:
        params.cost_per_mm2 = 0.005;
        params.fixed_cost = 2.0;
        params.bond_cost_per_chiplet = 0.25;
        params.bond_yield = 0.990;
        params.design_nre = 0.5e6;
        break;
    case PackagingTier::kSiliconInterposer:
        params.cost_per_mm2 = 0.030;
        params.fixed_cost = 6.0;
        params.bond_cost_per_chiplet = 0.60;
        params.bond_yield = 0.998;
        params.design_nre = 2.0e6;
        break;
    case PackagingTier::kFanOut:
        params.cost_per_mm2 = 0.012;
        params.fixed_cost = 3.5;
        params.bond_cost_per_chiplet = 0.40;
        params.bond_yield = 0.995;
        params.design_nre = 1.0e6;
        break;
    }
    return params;
}

std::vector<std::string>
PackagingTierParams::violations() const
{
    std::vector<std::string> problems;
    requireFiniteNonNegative(problems, cost_per_mm2, "tier cost_per_mm2");
    requireFiniteNonNegative(problems, fixed_cost, "tier fixed_cost");
    requireFiniteNonNegative(problems, bond_cost_per_chiplet,
                             "tier bond_cost_per_chiplet");
    requireFiniteNonNegative(problems, design_nre, "tier design_nre");
    if (!std::isfinite(bond_yield) || bond_yield <= 0.0 ||
        bond_yield > 1.0)
        problems.push_back("tier bond_yield must be within (0, 1]");
    return problems;
}

PackagingTierParams
ChipletCostParams::resolvedTier() const
{
    return tier_override.has_value() ? *tier_override
                                     : defaultTierParams(tier);
}

std::vector<std::string>
ChipletCostParams::violations() const
{
    std::vector<std::string> problems;
    if (spare_chiplets < 0 || spare_chiplets > kMaxSpareChiplets)
        problems.push_back("spare_chiplets must be within [0, " +
                           std::to_string(kMaxSpareChiplets) + "]");
    requireFiniteNonNegative(problems, kgd_test_cost_per_die,
                             "kgd_test_cost_per_die");
    requireFiniteNonNegative(problems, kgd_test_cost_per_mm2,
                             "kgd_test_cost_per_mm2");
    if (!std::isfinite(field_failure_prob) || field_failure_prob < 0.0 ||
        field_failure_prob >= 1.0)
        problems.push_back("field_failure_prob must be within [0, 1)");
    requireFiniteNonNegative(problems, ip_nre_per_type, "ip_nre_per_type");
    requireFiniteNonNegative(problems, redundancy_nre_per_spare,
                             "redundancy_nre_per_spare");
    if (tier_override.has_value()) {
        std::vector<std::string> tier_problems =
            tier_override->violations();
        problems.insert(problems.end(), tier_problems.begin(),
                        tier_problems.end());
    }
    return problems;
}

CostModel::CostModel(TechnologyDb db)
    : CostModel(std::move(db), Options{})
{}

CostModel::CostModel(TechnologyDb db, Options options)
    : _model(std::move(db)), _options(options)
{
    TTMCAS_REQUIRE(_options.labor_rate_per_hour > 0.0,
                   "labor rate must be positive");
    TTMCAS_REQUIRE(_options.eda_multiplier > 0.0,
                   "EDA multiplier must be positive");
    TTMCAS_REQUIRE(_options.base_package_cost >= 0.0 &&
                       _options.package_cost_per_mm2 >= 0.0 &&
                       _options.test_cost_per_die >= 0.0 &&
                       _options.test_cost_per_btransistor >= 0.0,
                   "manufacturing cost rates must be >= 0");
}

Dollars
CostModel::tapeoutCost(const ChipDesign& design) const
{
    design.validateAgainst(_model.technology());
    double labor = 0.0;
    double fixed = 0.0;
    for (const std::string& process : design.processNodes()) {
        const ProcessNode& node = _model.technology().node(process);
        labor += design.uniqueTransistorsAt(process) *
                 node.tapeout_effort_hours_per_transistor *
                 _options.labor_rate_per_hour * _options.eda_multiplier;
        fixed += node.tapeout_fixed_cost.value();
    }
    return Dollars(labor + fixed);
}

CostBreakdown
CostModel::evaluate(const ChipDesign& design, double n_chips) const
{
    design.validateAgainst(_model.technology());
    TTMCAS_REQUIRE(n_chips > 0.0, "number of final chips must be positive");

    CostBreakdown costs;

    // --- NRE ------------------------------------------------------------
    for (const std::string& process : design.processNodes()) {
        const ProcessNode& node = _model.technology().node(process);
        costs.tapeout_labor += Dollars(
            design.uniqueTransistorsAt(process) *
            node.tapeout_effort_hours_per_transistor *
            _options.labor_rate_per_hour * _options.eda_multiplier);
        costs.tapeout_fixed += node.tapeout_fixed_cost;
    }
    for (const auto& die : design.dies)
        costs.masks += _model.technology().node(die.process).mask_set_cost;

    // --- Manufacturing ----------------------------------------------------
    double packaging = n_chips * _options.base_package_cost;
    for (const auto& die : design.dies) {
        const ProcessNode& node = _model.technology().node(die.process);
        const SquareMm area = die.areaAt(node);
        const double yield = _model.dieYield(die, node);

        // Wafers are bought whole.
        const double wafers = std::ceil(
            _model.options().wafer
                .wafersFor(n_chips * die.count_per_package, area, yield)
                .value());
        costs.wafers += node.wafer_cost * wafers;

        // Every fabricated die of this type is tested; only good ones
        // are packaged (paper Eq. 7 rationale).
        const double dies_tested =
            n_chips * die.count_per_package / yield;
        costs.testing += Dollars(
            dies_tested * (_options.test_cost_per_die +
                           die.total_transistors / 1e9 *
                               _options.test_cost_per_btransistor));

        packaging += n_chips * die.count_per_package * area.value() *
                     _options.package_cost_per_mm2;
    }
    costs.packaging = Dollars(packaging);

    // Boundary guard: valid inputs must never leak a NaN or infinite
    // cost out of the model.
    finiteOr(costs.total().value(), DiagCode::NonFiniteCost,
             [&] { return "cost of design '" + design.name + "'"; });

    return costs;
}

Dollars
CostModel::perChipCost(const ChipDesign& design, double n_chips) const
{
    return evaluate(design, n_chips).total() / n_chips;
}

ChipletCostBreakdown
CostModel::evaluateChiplet(const ChipDesign& design, double n_chips,
                           const ChipletCostParams& params) const
{
    design.validateAgainst(_model.technology());
    TTMCAS_REQUIRE(n_chips > 0.0 && std::isfinite(n_chips),
                   "number of final packages must be positive");
    {
        const std::vector<std::string> problems = params.violations();
        std::string joined;
        for (const std::string& problem : problems) {
            if (!joined.empty())
                joined += "; ";
            joined += problem;
        }
        TTMCAS_REQUIRE(problems.empty(),
                       "invalid chiplet cost params: " + joined);
    }

    const PackagingTierParams tier = params.resolvedTier();
    const int spares = params.spare_chiplets;
    const double bond_fail = 1.0 - tier.bond_yield;

    ChipletCostBreakdown costs;
    costs.packages = n_chips;

    // Pass 1: per-type placement counts, the package silicon
    // footprint, and the two redundancy tails (assembly yield and
    // lifetime field survival are products over independent types).
    double package_area = 0.0;
    double placed_total = 0.0;
    for (const auto& die : design.dies) {
        const ProcessNode& node = _model.technology().node(die.process);
        const double count = die.count_per_package;
        TTMCAS_REQUIRE(count > 0.0 && count == std::floor(count) &&
                           count <= 1e6,
                       "die '" + die.name +
                           "': count_per_package must be a positive "
                           "integer for the chiplet redundancy model");
        const int placed = static_cast<int>(count) + spares;
        const SquareMm area = die.areaAt(node);
        package_area += static_cast<double>(placed) * area.value();
        placed_total += static_cast<double>(placed);
        costs.assembly_yield *=
            binomialTailAtMost(placed, spares, bond_fail);
        costs.field_survival *=
            binomialTailAtMost(placed, spares, params.field_failure_prob);
    }
    TTMCAS_REQUIRE(costs.assembly_yield > 0.0,
                   "assembly yield of design '" + design.name +
                       "' is zero under the packaging tier");

    // Packages started per good package out.
    const double assembled = n_chips / costs.assembly_yield;

    // Pass 2: recurring silicon (RE) — wafers bought whole as in
    // evaluate(), and every fabricated die pays the KGD screen; only
    // known-good dies are bonded.
    for (const auto& die : design.dies) {
        const ProcessNode& node = _model.technology().node(die.process);
        const SquareMm area = die.areaAt(node);
        const double yield = _model.dieYield(die, node);
        const double placed = die.count_per_package +
                              static_cast<double>(spares);
        const double dies_consumed = assembled * placed;

        const double wafers = std::ceil(
            _model.options().wafer.wafersFor(dies_consumed, area, yield)
                .value());
        costs.dies += node.wafer_cost * wafers;

        const double dies_tested = dies_consumed / yield;
        costs.kgd_test += Dollars(
            dies_tested * (params.kgd_test_cost_per_die +
                           area.value() * params.kgd_test_cost_per_mm2));
    }

    costs.assembly = Dollars(
        assembled * (tier.fixed_cost + tier.cost_per_mm2 * package_area +
                     tier.bond_cost_per_chiplet * placed_total));

    // Expected warranty replacements: a package that dies in the field
    // (exhausts its spares) is rebuilt at the recurring per-package
    // cost. Liu's trade: spares raise this survival term while adding
    // silicon/bonding cost above.
    const Dollars recurring =
        costs.dies + costs.kgd_test + costs.assembly;
    costs.field_repair = recurring * (1.0 - costs.field_survival);

    // One-time NRE. Spares share their type's mask set — redundancy
    // costs area and packaging-design effort, never a new tapeout.
    const double types = static_cast<double>(design.dies.size());
    for (const auto& die : design.dies)
        costs.nre_masks += _model.technology().node(die.process)
                               .mask_set_cost;
    costs.nre_ip = Dollars(params.ip_nre_per_type * types);
    costs.nre_packaging = Dollars(
        tier.design_nre + params.redundancy_nre_per_spare *
                              static_cast<double>(spares) * types);

    finiteOr(costs.total().value(), DiagCode::NonFiniteCost,
             [&] {
                 return "chiplet cost of design '" + design.name + "'";
             });

    return costs;
}

} // namespace ttmcas
