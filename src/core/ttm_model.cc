#include "core/ttm_model.hh"

#include <algorithm>

#include "support/error.hh"
#include "support/metrics.hh"
#include "support/outcome.hh"

namespace ttmcas {

namespace {

/** Scale factors that keep the stored effort magnitudes readable. */
constexpr double kTestingEffortScale = 1e15;   // transistor-chips
constexpr double kPackagingEffortScale = 1e9;  // chip-die-mm^2

/** Shared bucket bounds for the per-stage wall-clock histograms. */
std::vector<double>
stageBounds()
{
    return {0.5,    1.0,    2.0,     5.0,     10.0,     50.0,
            100.0,  500.0,  1000.0,  10000.0, 100000.0, 1000000.0};
}

} // namespace

const NodeFabDetail&
TtmResult::nodeDetail(const std::string& process) const
{
    auto it = std::find_if(node_details.begin(), node_details.end(),
                           [&](const NodeFabDetail& detail) {
                               return detail.process == process;
                           });
    TTMCAS_REQUIRE(it != node_details.end(),
                   "no fabrication detail for node '" + process + "'");
    return *it;
}

TtmModel::TtmModel(TechnologyDb db) : TtmModel(std::move(db), Options{}) {}

TtmModel::TtmModel(TechnologyDb db, Options options)
    : _db(std::move(db)), _options(std::move(options))
{
    TTMCAS_REQUIRE(!_db.empty(), "TtmModel needs a non-empty technology db");
    TTMCAS_REQUIRE(_options.tapeout_engineers > 0.0,
                   "tapeout team size must be positive");
    TTMCAS_REQUIRE(_options.yield != nullptr, "TtmModel needs a yield model");
}

double
TtmModel::dieYield(const Die& die, const ProcessNode& node) const
{
    if (die.yield_override.has_value())
        return *die.yield_override;
    return _options.yield->dieYield(die.areaAt(node),
                                    node.defect_density_per_mm2);
}

Wafers
TtmModel::waferDemand(const ChipDesign& design, double n_chips,
                      const std::string& process) const
{
    TTMCAS_REQUIRE(n_chips > 0.0, "number of final chips must be positive");
    const ProcessNode& node = _db.node(process);
    Wafers total{0.0};
    for (const auto& die : design.dies) {
        if (die.process != process)
            continue;
        const SquareMm area = die.areaAt(node);
        const double yield = dieYield(die, node);
        total += _options.wafer.wafersFor(n_chips * die.count_per_package,
                                          area, yield);
    }
    return total;
}

TtmResult
TtmModel::evaluate(const ChipDesign& design, double n_chips,
                   const MarketConditions& market) const
{
    design.validateAgainst(_db);
    TTMCAS_REQUIRE(n_chips > 0.0, "number of final chips must be positive");

    // Hoist the string-keyed node lookups out of the per-phase loops:
    // evaluate() is the Monte-Carlo/sweep hot path, and each map probe
    // costs a hash of the process-name string. One pointer per die and
    // per process, resolved once, serves all four phases below.
    const std::vector<std::string>& process_names = design.processNodes();
    std::vector<const ProcessNode*> die_nodes;
    die_nodes.reserve(design.dies.size());
    for (const auto& die : design.dies)
        die_nodes.push_back(&_db.node(die.process));
    std::vector<const ProcessNode*> process_nodes;
    process_nodes.reserve(process_names.size());
    for (const std::string& process : process_names)
        process_nodes.push_back(&_db.node(process));

    // Stage wall-clock accounting (docs/OBSERVABILITY.md): one
    // histogram per model phase, all no-ops while metrics are off.
    static const obs::Counter evaluations("ttm.evaluations");
    static const obs::Histogram design_us("ttm.stage.design_us",
                                          stageBounds());
    static const obs::Histogram tapeout_us("ttm.stage.tapeout_us",
                                           stageBounds());
    static const obs::Histogram fab_us("ttm.stage.fab_us", stageBounds());
    static const obs::Histogram package_us("ttm.stage.package_us",
                                           stageBounds());
    evaluations.increment();

    TtmResult result;
    {
        // --- Design phase (Eq. 1 input): fixed schedule term --------
        const obs::ScopedTimer timer(design_us);
        result.design_time = design.design_time;
    }

    {
        // --- Tapeout phase (Eq. 2) ----------------------------------
        const obs::ScopedTimer timer(tapeout_us);
        double effort_hours = 0.0;
        for (std::size_t p = 0; p < process_names.size(); ++p) {
            const ProcessNode& node = *process_nodes[p];
            effort_hours += design.uniqueTransistorsAt(process_names[p]) *
                            node.tapeout_effort_hours_per_transistor;
        }
        result.tapeout_effort = EngineeringHours(effort_hours);
        result.tapeout_time = units::calendarTime(
            result.tapeout_effort, _options.tapeout_engineers);
    }

    {
        // Fab stage: per-die demand plus the queue+production phase.
        const obs::ScopedTimer timer(fab_us);

        // --- Per-die fabrication demand (Eq. 5/6 inputs) ------------
        for (std::size_t d = 0; d < design.dies.size(); ++d) {
            const auto& die = design.dies[d];
            const ProcessNode& node = *die_nodes[d];
            DieDetail detail;
            detail.die_name = die.name;
            detail.process = die.process;
            detail.area = die.areaAt(node);
            detail.yield = dieYield(die, node);
            detail.gross_dies_per_wafer =
                _options.wafer.grossDiesPerWafer(detail.area);
            detail.good_dies_per_wafer =
                _options.wafer.goodDiesPerWafer(detail.area, detail.yield);
            detail.dies_needed = n_chips * die.count_per_package;
            detail.wafers = _options.wafer.wafersFor(
                detail.dies_needed, detail.area, detail.yield);
            result.die_details.push_back(std::move(detail));
        }

        // --- Fabrication phase (Eq. 3/4/5): max over nodes ----------
        Weeks worst_fab{0.0};
        for (std::size_t p = 0; p < process_names.size(); ++p) {
            const std::string& process = process_names[p];
            const ProcessNode& node = *process_nodes[p];
            const WafersPerWeek rate = market.effectiveWaferRate(node);
            TTMCAS_REQUIRE(rate.value() > 0.0,
                           "design '" + design.name + "': node '" +
                               process +
                               "' has no production capacity under the "
                               "given market conditions");

            NodeFabDetail detail;
            detail.process = process;
            detail.effective_rate = rate;
            for (const auto& die_detail : result.die_details) {
                if (die_detail.process == process)
                    detail.wafers += die_detail.wafers;
            }
            detail.queue_time =
                units::productionTime(market.queueWafers(node), rate);
            detail.production_time =
                units::productionTime(detail.wafers, rate) +
                node.foundry_latency;

            const Weeks fab = detail.fabTime();
            if (result.node_details.empty() || fab > worst_fab) {
                worst_fab = fab;
                result.fab_bottleneck = process;
            }
            result.node_details.push_back(std::move(detail));
        }
        result.fab_time = worst_fab;
    }

    {
        // --- Packaging phase (Eq. 7): test + assembly per die type --
        const obs::ScopedTimer timer(package_us);
        Weeks latency{0.0};
        double testing_weeks = 0.0;
        double assembly_weeks = 0.0;
        for (std::size_t d = 0; d < design.dies.size(); ++d) {
            const auto& die = design.dies[d];
            const ProcessNode& node = *die_nodes[d];
            latency = std::max(latency, node.osat_latency);

            // The fab stage already computed this die's yield and area;
            // reusing the stored values skips a pow() per die and is
            // bitwise-identical (same doubles, same expression chain).
            const double yield = result.die_details[d].yield;
            const double dies_tested =
                n_chips * die.count_per_package / yield;
            testing_weeks += dies_tested * die.total_transistors *
                             node.testing_effort_weeks_per_e15 /
                             kTestingEffortScale;

            const SquareMm area = result.die_details[d].area;
            assembly_weeks += n_chips * die.count_per_package *
                              area.value() *
                              node.packaging_effort_weeks_per_e9_mm2 /
                              kPackagingEffortScale;
        }
        result.packaging_latency = latency;
        result.testing_time = Weeks(testing_weeks);
        result.assembly_time = Weeks(assembly_weeks);
        result.packaging_time =
            result.packaging_latency + result.testing_time +
            result.assembly_time;
    }

    // Boundary guard: a finite, valid input set must never leak a NaN
    // or infinite schedule out of the model.
    finiteOr(result.total().value(), DiagCode::NonFiniteTtm,
             [&] { return "TTM of design '" + design.name + "'"; });

    return result;
}

} // namespace ttmcas
