#include "opt/split_optimizer.hh"

#include <algorithm>
#include <cmath>

#include "stats/batch_driver.hh"
#include "support/error.hh"
#include "support/mathutil.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace ttmcas {

namespace {

std::vector<double>
defaultFractions()
{
    std::vector<double> fractions;
    for (int percent = 1; percent <= 100; ++percent)
        fractions.push_back(percent / 100.0);
    return fractions;
}

} // namespace

SplitPlanner::SplitPlanner(TtmModel model, CostModel costs)
    : SplitPlanner(std::move(model), std::move(costs), Options{})
{}

SplitPlanner::SplitPlanner(TtmModel model, CostModel costs, Options options)
    : _model(std::move(model)), _costs(std::move(costs)),
      _options(std::move(options))
{
    TTMCAS_REQUIRE(_options.derivative_rel_step > 0.0,
                   "derivative step must be positive");
    TTMCAS_REQUIRE(_options.cas_normalization > 0.0,
                   "CAS normalization must be positive");
    TTMCAS_REQUIRE(_options.ttm_slack >= 0.0,
                   "TTM slack must be non-negative");
    if (_options.fractions.empty())
        _options.fractions = defaultFractions();
}

double
SplitPlanner::combinedTtmWeeks(const DesignFactory& factory, double n_chips,
                               const std::string& primary,
                               const std::string& secondary,
                               double primary_fraction,
                               const MarketConditions& market) const
{
    TTMCAS_REQUIRE(primary_fraction > 0.0 && primary_fraction <= 1.0,
                   "primary fraction must be in (0, 1]");
    const double n_primary = n_chips * primary_fraction;
    double weeks = _model.evaluate(factory(primary), n_primary, market)
                       .total()
                       .value();
    if (primary_fraction < 1.0) {
        TTMCAS_REQUIRE(!secondary.empty(),
                       "split plan needs a secondary node");
        const double n_secondary = n_chips * (1.0 - primary_fraction);
        weeks = std::max(
            weeks, _model.evaluate(factory(secondary), n_secondary, market)
                       .total()
                       .value());
    }
    return weeks;
}

Weeks
SplitPlanner::ttm(const DesignFactory& factory, double n_chips,
                  const std::string& primary, const std::string& secondary,
                  double primary_fraction,
                  const MarketConditions& market) const
{
    return Weeks(combinedTtmWeeks(factory, n_chips, primary, secondary,
                                  primary_fraction, market));
}

Dollars
SplitPlanner::cost(const DesignFactory& factory, double n_chips,
                   const std::string& primary, const std::string& secondary,
                   double primary_fraction) const
{
    TTMCAS_REQUIRE(primary_fraction > 0.0 && primary_fraction <= 1.0,
                   "primary fraction must be in (0, 1]");
    Dollars total =
        _costs.evaluate(factory(primary), n_chips * primary_fraction)
            .total();
    if (primary_fraction < 1.0) {
        total += _costs
                     .evaluate(factory(secondary),
                               n_chips * (1.0 - primary_fraction))
                     .total();
    }
    return total;
}

double
SplitPlanner::cas(const DesignFactory& factory, double n_chips,
                  const std::string& primary, const std::string& secondary,
                  double primary_fraction,
                  const MarketConditions& market) const
{
    std::vector<std::string> nodes{primary};
    if (primary_fraction < 1.0)
        nodes.push_back(secondary);

    double slope_sum = 0.0;
    for (const std::string& process : nodes) {
        const ProcessNode& node = _model.technology().node(process);
        const double max_rate = node.waferRate().value();
        TTMCAS_REQUIRE(max_rate > 0.0,
                       "node '" + process + "' has no production");
        const double current = market.effectiveWaferRate(node).value();

        const auto ttm_of_rate = [&](double rate) {
            MarketConditions perturbed = market;
            perturbed.setCapacityFactor(process, rate / max_rate);
            return combinedTtmWeeks(factory, n_chips, primary, secondary,
                                    primary_fraction, perturbed);
        };
        slope_sum += std::fabs(centralDifference(
            ttm_of_rate, current, _options.derivative_rel_step));
    }
    TTMCAS_REQUIRE(slope_sum > 0.0,
                   "combined TTM is insensitive to production rates");
    return 1.0 / slope_sum / _options.cas_normalization;
}

ProductionPlan
SplitPlanner::singleProcessPlan(const DesignFactory& factory, double n_chips,
                                const std::string& process,
                                const MarketConditions& market) const
{
    ProductionPlan plan;
    plan.primary = process;
    plan.primary_fraction = 1.0;
    plan.ttm = ttm(factory, n_chips, process, "", 1.0, market);
    plan.cost = cost(factory, n_chips, process, "", 1.0);
    plan.cas = cas(factory, n_chips, process, "", 1.0, market);
    return plan;
}

ProductionPlan
SplitPlanner::optimizeCas(const DesignFactory& factory, double n_chips,
                          const std::string& primary,
                          const std::string& secondary,
                          const MarketConditions& market) const
{
    TTMCAS_REQUIRE(primary != secondary,
                   "primary and secondary nodes must differ");

    const obs::ScopedSpan obs_span("opt", "SplitPlanner::optimizeCas");
    static const obs::Counter split_points("opt.split_points");

    const char* kernel = "SplitPlanner::optimizeCas";
    const std::size_t fraction_count = _options.fractions.size();

    // Pass 1: TTM of every candidate split (points [0, F)), and the
    // best achievable.
    PointKernel<double> ttm_points;
    ttm_points.name = kernel;
    ttm_points.count = fraction_count;
    ttm_points.total = 2 * fraction_count;
    ttm_points.nonfinite = DiagCode::NonFiniteTtm;
    ttm_points.counter = &split_points;
    ttm_points.point = [&](std::size_t i) {
        return combinedTtmWeeks(factory, n_chips, primary, secondary,
                                _options.fractions[i], market);
    };
    PointBatch<double> ttm_weeks = evaluatePoints(_options, ttm_points);
    double best_ttm = 0.0;
    bool have_ttm = false;
    for (std::size_t i = 0; i < fraction_count; ++i) {
        if (ttm_weeks.done(i) &&
            (!have_ttm || ttm_weeks.values[i] < best_ttm)) {
            best_ttm = ttm_weeks.values[i];
            have_ttm = true;
        }
    }
    const double ttm_limit = best_ttm * (1.0 + _options.ttm_slack);
    const auto inRace = [&](std::size_t i) {
        return ttm_weeks.done(i) && ttm_weeks.values[i] <= ttm_limit;
    };

    // Pass 2: CAS of the near-fastest fractions (points [F, 2F)). A
    // fraction out of the race is not scored (its slot holds 0).
    BatchControl cas_control = _options;
    cas_control.fault_injector = nullptr;
    PointKernel<double> cas_points = ttm_points;
    cas_points.first = fraction_count;
    cas_points.nonfinite = DiagCode::NonFiniteCas;
    cas_points.point = [&](std::size_t i) {
        if (!inRace(i))
            return 0.0;
        return cas(factory, n_chips, primary, secondary,
                   _options.fractions[i], market);
    };
    PointBatch<double> cas_scores = evaluatePoints(cas_control, cas_points);
    ttm_weeks.failures.append(std::move(cas_scores.failures));
    enforceBatch(_options, kernel, ttm_weeks.failures);

    // The first-strictly-better argmax scan stays serial so the chosen
    // plan is thread-count independent.
    ProductionPlan best;
    bool have_best = false;
    for (std::size_t i = 0; i < fraction_count; ++i) {
        if (!inRace(i) || !cas_scores.done(i))
            continue;
        const double fraction = _options.fractions[i];
        const double score = cas_scores.values[i];
        if (!have_best || score > best.cas) {
            best.primary = primary;
            best.secondary = fraction < 1.0 ? secondary : "";
            best.primary_fraction = fraction;
            best.cas = score;
            have_best = true;
        }
    }
    TTMCAS_REQUIRE(have_best,
                   "SplitPlanner::optimizeCas: no split fraction survived "
                   "failure isolation");
    best.ttm = ttm(factory, n_chips, best.primary,
                   best.singleProcess() ? "" : best.secondary,
                   best.primary_fraction, market);
    best.cost = cost(factory, n_chips, best.primary,
                     best.singleProcess() ? "" : best.secondary,
                     best.primary_fraction);
    return best;
}

} // namespace ttmcas
