#include "core/ensemble.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "core/cas.hh"
#include "stats/batch_driver.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "support/error.hh"

namespace ttmcas {

namespace {

/** The per-path evaluation result reduced into groups. */
struct PathValue
{
    double ttm = 0.0;
    double cas = 0.0;
    Regime label = Regime::Nominal;
};

std::vector<std::string>
designProcesses(const ChipDesign& design)
{
    std::set<std::string> unique;
    for (const Die& die : design.dies)
        unique.insert(die.process);
    return {unique.begin(), unique.end()};
}

EnsembleDistribution
distributionOf(const std::vector<double>& samples, Rng& bootstrap_rng,
               std::size_t resamples, double coverage)
{
    EnsembleDistribution dist;
    if (samples.empty())
        return dist;
    const Summary summary = Summary::of(samples);
    dist.mean = summary.mean;
    dist.p5 = summary.percentile(5.0);
    dist.p50 = summary.percentile(50.0);
    dist.p95 = summary.percentile(95.0);
    if (resamples == 0 || samples.size() == 1) {
        dist.ci_lo = dist.mean;
        dist.ci_hi = dist.mean;
        return dist;
    }
    // Percentile bootstrap of the mean: resample paths with
    // replacement from a dedicated seeded stream (serial, so the CI
    // is thread-count invariant like everything else here).
    std::vector<double> means;
    means.reserve(resamples);
    const std::size_t n = samples.size();
    for (std::size_t b = 0; b < resamples; ++b) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            sum += samples[bootstrap_rng.uniformInt(n)];
        means.push_back(sum / static_cast<double>(n));
    }
    const Interval interval =
        Summary::of(std::move(means)).percentileInterval(coverage);
    dist.ci_lo = interval.lo;
    dist.ci_hi = interval.hi;
    return dist;
}

EnsembleGroup
makeGroup(std::string label, const std::vector<double>& ttm,
          const std::vector<double>& cas, std::uint64_t bootstrap_seed,
          std::uint64_t group_index, const EnsembleOptions& options)
{
    EnsembleGroup group;
    group.label = std::move(label);
    group.count = ttm.size();
    Rng bootstrap_rng(derivePathSeed(bootstrap_seed, group_index));
    group.ttm = distributionOf(ttm, bootstrap_rng,
                               options.bootstrap_resamples,
                               options.bootstrap_coverage);
    group.cas = distributionOf(cas, bootstrap_rng,
                               options.bootstrap_resamples,
                               options.bootstrap_coverage);
    return group;
}

} // namespace

std::vector<std::string>
EnsembleSpec::violations() const
{
    std::vector<std::string> all;
    if (!std::isfinite(horizon_weeks) || horizon_weeks <= 0.0 ||
        horizon_weeks > 1040.0)
        all.push_back("horizon_weeks must be finite in (0, 1040]");
    if (!std::isfinite(step_weeks) || step_weeks <= 0.0 ||
        (std::isfinite(horizon_weeks) && step_weeks > horizon_weeks))
        all.push_back("step_weeks must be finite in (0, horizon_weeks]");
    if (nodes.size() > kMaxEnsembleNodes)
        all.push_back("nodes has " + std::to_string(nodes.size()) +
                      " entries, more than the limit of " +
                      std::to_string(kMaxEnsembleNodes));
    for (const auto& [node, params] : nodes) {
        if (node.empty())
            all.push_back("nodes contains an empty node name");
        for (const std::string& violation : params.violations())
            all.push_back("nodes." + node + ": " + violation);
    }
    if (!std::isfinite(outage_label_fraction) ||
        outage_label_fraction < 0.0 || outage_label_fraction > 1.0)
        all.push_back("outage_label_fraction must be in [0, 1]");
    if (!std::isfinite(constrained_label_fraction) ||
        constrained_label_fraction < 0.0 ||
        constrained_label_fraction > 1.0)
        all.push_back("constrained_label_fraction must be in [0, 1]");
    return all;
}

EnsembleSpec
EnsembleSpec::defaultsFor(const std::vector<std::string>& processes)
{
    EnsembleSpec spec;
    for (const std::string& process : processes) {
        DisruptionProcessParams params;
        params.markov = MarkovRegimeParams::defaults();
        params.hawkes = HawkesParams::defaults();
        spec.nodes.emplace(process, params);
    }
    return spec;
}

ScenarioPath
sampleScenarioPath(const EnsembleSpec& spec, std::uint64_t seed,
                   std::uint64_t path_index)
{
    ScenarioPath path;
    // One parent per path; children split off in sorted node order
    // (std::map iteration), so node streams are independent of both
    // thread scheduling and of which other nodes exist earlier in an
    // evaluation batch.
    Rng parent(derivePathSeed(seed, path_index));
    for (const auto& [node, params] : spec.nodes) {
        Rng child = parent.split();
        path.emplace(node,
                     sampleDisruptionPath(params, spec.horizon_weeks,
                                          spec.step_weeks, child));
    }
    return path;
}

MarketTimeline
lowerScenarioPath(const ScenarioPath& path, const MarketConditions& base,
                  const std::vector<std::string>& processes)
{
    MarketTimeline market;
    for (const std::string& process : processes) {
        const double base_factor = base.capacityFactor(process);
        const auto it = path.find(process);
        if (it == path.end()) {
            market.set(process, CapacityTimeline(base_factor));
            continue;
        }
        CapacityTimeline timeline(base_factor);
        for (const CapacityPhase& phase : it->second.phases)
            timeline.addPhase(Weeks(phase.start_week),
                              base_factor * phase.factor);
        market.set(process, std::move(timeline));
    }
    return market;
}

Regime
classifyScenarioPath(const ScenarioPath& path, const EnsembleSpec& spec)
{
    double worst_outage = 0.0;
    double worst_constrained = 0.0;
    for (const auto& [node, sampled] : path) {
        worst_outage = std::max(
            worst_outage,
            sampled.occupancy[static_cast<std::size_t>(Regime::Outage)]);
        worst_constrained =
            std::max(worst_constrained,
                     sampled.occupancy[static_cast<std::size_t>(
                         Regime::Constrained)]);
    }
    if (worst_outage >= spec.outage_label_fraction &&
        spec.outage_label_fraction >= 0.0 && worst_outage > 0.0)
        return Regime::Outage;
    if (worst_constrained >= spec.constrained_label_fraction &&
        worst_constrained > 0.0)
        return Regime::Constrained;
    return Regime::Nominal;
}

EnsembleRunner::EnsembleRunner(TechnologyDb db,
                               TtmModel::Options model_options)
    : _db(std::move(db)), _model_options(model_options)
{}

EnsembleResult
EnsembleRunner::run(const ChipDesign& design, double n_chips,
                    const MarketConditions& base_market,
                    const EnsembleSpec& spec,
                    const EnsembleOptions& options) const
{
    {
        const std::vector<std::string> violations = spec.violations();
        if (!violations.empty()) {
            std::string message = "EnsembleSpec invalid:";
            for (const std::string& violation : violations)
                message += " " + violation + ";";
            throw ModelError(message);
        }
    }
    if (options.paths == 0)
        throw ModelError("ensemble paths must be >= 1");

    const std::vector<std::string> processes = designProcesses(design);
    const TimelineTtmModel timeline_model(
        TtmModel(_db, _model_options));
    const CasModel cas_model(TtmModel(_db, _model_options));
    std::map<std::string, double> queue_weeks;
    for (const auto& [node, weeks] : base_market.queueWeeksByNode())
        queue_weeks.emplace(node, weeks.value());

    const auto evaluatePath = [&](std::size_t k) {
        const ScenarioPath scenario =
            sampleScenarioPath(spec, options.seed, k);
        PathValue value;
        value.label = classifyScenarioPath(scenario, spec);
        const MarketTimeline market =
            lowerScenarioPath(scenario, base_market, processes);
        value.ttm = finiteOr(timeline_model
                                 .evaluate(design, n_chips, market,
                                           queue_weeks)
                                 .total()
                                 .value(),
                             DiagCode::NonFiniteTtm, "ensemble TTM");
        // CAS (Eq. 8) is defined against a static market; evaluate it
        // at the path's time-averaged capacity per node, composed with
        // the base factors — the batch/static kernel runs unchanged.
        MarketConditions averaged = base_market;
        for (const std::string& process : processes) {
            const auto it = scenario.find(process);
            if (it == scenario.end())
                continue;
            averaged.setCapacityFactor(
                process, base_market.capacityFactor(process) *
                             it->second.meanCapacity());
        }
        value.cas =
            finiteOr(cas_model.cas(design, n_chips, averaged),
                     DiagCode::NonFiniteCas, "ensemble CAS");
        return value;
    };

    PointKernel<PathValue> points;
    points.name = kEnsembleKernelName;
    points.seed = options.seed;
    points.count = options.paths;
    points.point = evaluatePath;
    points.width = 2;
    points.save = [](const PathValue& value, double* slots) {
        slots[0] = value.ttm;
        slots[1] = value.cas;
    };
    points.restore = [&](std::size_t k, const double* slots) {
        // Restored bit-exactly; the regime label is recomputed from
        // the (deterministic, cheap) sampling pass — no model
        // evaluation.
        PathValue value;
        value.ttm = slots[0];
        value.cas = slots[1];
        value.label = classifyScenarioPath(
            sampleScenarioPath(spec, options.seed, k), spec);
        return value;
    };
    const PointBatch<PathValue> paths = runPoints(options, points);

    // Serial reduction in path order.
    EnsembleResult result;
    result.paths_requested = options.paths;
    std::array<std::vector<double>, kRegimeCount> ttm_by_regime;
    std::array<std::vector<double>, kRegimeCount> cas_by_regime;
    std::vector<double> ttm_all;
    std::vector<double> cas_all;
    for (std::size_t k = 0; k < options.paths; ++k) {
        if (!paths.done(k))
            continue;
        const PathValue& value = paths.values[k];
        const std::size_t regime =
            static_cast<std::size_t>(value.label);
        ttm_by_regime[regime].push_back(value.ttm);
        cas_by_regime[regime].push_back(value.cas);
        ttm_all.push_back(value.ttm);
        cas_all.push_back(value.cas);
    }
    result.paths_completed = ttm_all.size();
    for (std::size_t r = 0; r < kRegimeCount; ++r)
        result.regimes[r] =
            makeGroup(regimeName(static_cast<Regime>(r)),
                      ttm_by_regime[r], cas_by_regime[r],
                      options.bootstrap_seed, r, options);
    result.overall = makeGroup("all", ttm_all, cas_all,
                               options.bootstrap_seed, kRegimeCount,
                               options);
    return result;
}

} // namespace ttmcas
