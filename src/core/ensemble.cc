#include "core/ensemble.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "core/cas.hh"
#include "core/ttm_batch.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "support/error.hh"

namespace ttmcas {

namespace {

std::vector<std::string>
designProcesses(const ChipDesign& design)
{
    std::set<std::string> unique;
    for (const Die& die : design.dies)
        unique.insert(die.process);
    return {unique.begin(), unique.end()};
}

/** The path label from its worst nodes' outage/constrained occupancy. */
Regime
regimeOf(double worst_outage, double worst_constrained,
         const EnsembleSpec& spec)
{
    if (worst_outage >= spec.outage_label_fraction &&
        spec.outage_label_fraction >= 0.0 && worst_outage > 0.0)
        return Regime::Outage;
    if (worst_constrained >= spec.constrained_label_fraction &&
        worst_constrained > 0.0)
        return Regime::Constrained;
    return Regime::Nominal;
}

/**
 * CapacityTimeline(base) with one phase (start, base * factor) per
 * entry of @p phases, then timeToAccumulate(target, start), computed on
 * the flat phase list: the same walk over the same boundaries with the
 * same products, sums and quotients, in the same order. The phase
 * starts must strictly increase (composed phases do), so each map key
 * of the timeline is one entry here, and target and start must be
 * >= 0. Returns false where timeToAccumulate would throw: the walk
 * reaches a final zero factor.
 */
bool
accumulate(std::span<const CapacityPhase> phases, double base,
           double target, double start, double& done)
{
    if (target == 0.0) {
        done = start;
        return true;
    }
    // next = the first phase starting after the cursor (upper_bound).
    std::size_t next = 0;
    while (next < phases.size() && phases[next].start_week <= start)
        ++next;
    double remaining = target;
    double cursor = start;
    for (;;) {
        const double factor =
            next == 0 ? base : base * phases[next - 1].factor;
        if (next == phases.size()) {
            // Final phase runs forever.
            if (!(factor > 0.0))
                return false;
            done = cursor + remaining / factor;
            return true;
        }
        const double segment = phases[next].start_week - cursor;
        const double produced = factor * segment;
        if (produced >= remaining && factor > 0.0) {
            done = cursor + remaining / factor;
            return true;
        }
        remaining -= produced;
        cursor = phases[next].start_week;
        ++next;
    }
}

/**
 * What every path of one run shares: the spec's nodes in sampling
 * order, the design's processes, and the upstream TTM — the
 * full-capacity TtmModel::evaluate and each node's backlog plus wafer
 * demand in weeks, which no path changes. Per design process ("slot",
 * in design.processNodes() order, the order the timeline model and the
 * compiled CAS walk).
 */
struct RunPlan
{
    /** Spec nodes in sorted order, each with its slot (-1 = none). */
    std::vector<const DisruptionProcessParams*> params;
    std::vector<std::ptrdiff_t> slot_of;

    std::vector<std::string> processes;
    std::vector<double> base_factor;
    /** Backlog plus demand, in weeks of full production. */
    std::vector<double> target_weeks;
    std::vector<double> latency_weeks;
    std::vector<unsigned char> disrupted;
    /** Production-done week of each undisrupted slot. */
    std::vector<double> steady_done;

    double design_weeks = 0.0;
    double tapeout_weeks = 0.0;
    double packaging_weeks = 0.0;
    double foundry_start = 0.0;
    /**
     * False when building the plan threw or met a case the flat
     * integration does not certify. Every path then runs the scalar
     * chain, which fails each one with the diagnostic it always gave,
     * after that path's own sampling.
     */
    bool ok = false;
};

RunPlan
planRun(const ChipDesign& design, double n_chips,
        const MarketConditions& base_market, const EnsembleSpec& spec,
        const TtmModel& model,
        const std::map<std::string, double>& queue_weeks)
{
    RunPlan plan;
    plan.processes = design.processNodes();
    for (const auto& [node, params] : spec.nodes) {
        plan.params.push_back(&params);
        const auto it = std::find(plan.processes.begin(),
                                  plan.processes.end(), node);
        plan.slot_of.push_back(it == plan.processes.end()
                                   ? -1
                                   : it - plan.processes.begin());
    }
    try {
        design.validateAgainst(model.technology());
        if (!(n_chips > 0.0))
            return plan;
        const TtmResult upstream = model.evaluate(design, n_chips);
        plan.design_weeks = upstream.design_time.value();
        plan.tapeout_weeks = upstream.tapeout_time.value();
        plan.packaging_weeks = upstream.packaging_time.value();
        plan.foundry_start =
            (upstream.design_time + upstream.tapeout_time).value();
        bool ok = plan.foundry_start >= 0.0;
        for (const std::string& process : plan.processes) {
            const ProcessNode& node = model.technology().node(process);
            double backlog_weeks = 0.0;
            if (auto it = queue_weeks.find(process);
                it != queue_weeks.end())
                backlog_weeks = it->second;
            const double demand_weeks =
                model.waferDemand(design, n_chips, process).value() /
                node.waferRate().value();
            const double target = backlog_weeks + demand_weeks;
            const double base = base_market.capacityFactor(process);
            const bool disrupted = spec.nodes.count(process) > 0;
            double steady = 0.0;
            ok = ok && backlog_weeks >= 0.0 && target >= 0.0 &&
                 std::isfinite(base) &&
                 (disrupted || accumulate({}, base, target,
                                          plan.foundry_start, steady));
            plan.base_factor.push_back(base);
            plan.target_weeks.push_back(target);
            plan.latency_weeks.push_back(node.foundry_latency.value());
            plan.disrupted.push_back(disrupted ? 1 : 0);
            plan.steady_done.push_back(steady);
        }
        plan.ok = ok;
    } catch (const std::exception&) {
        plan.ok = false;
    }
    return plan;
}

/** Per-thread buffers of the flat path, reused across paths. */
struct PathWorkspace
{
    DisruptionSample sample;
    std::vector<double> done;
    std::vector<double> mean_capacity;
    std::vector<double> capacity_factors;
};

/**
 * Sample path @p k node by node into the thread's workspace, drawing
 * exactly what sampleScenarioPath draws, and return its label. With
 * @p integrate, also integrate each disrupted design slot's production
 * into ws.done and its mean capacity into ws.mean_capacity; returns
 * nullopt when an integration is not certified (the scalar chain must
 * run the path).
 */
std::optional<Regime>
samplePath(const RunPlan& plan, const EnsembleSpec& spec,
           std::uint64_t seed, std::size_t k, bool integrate,
           PathWorkspace& ws)
{
    if (integrate) {
        ws.done = plan.steady_done;
        ws.mean_capacity.resize(plan.processes.size());
    }
    Rng parent(derivePathSeed(seed, k));
    double worst_outage = 0.0;
    double worst_constrained = 0.0;
    for (std::size_t i = 0; i < plan.params.size(); ++i) {
        Rng child = parent.split();
        sampleDisruptionInto(*plan.params[i], spec.horizon_weeks,
                             spec.step_weeks, child, ws.sample);
        const auto& occupancy = ws.sample.occupancy;
        worst_outage = std::max(
            worst_outage,
            occupancy[static_cast<std::size_t>(Regime::Outage)]);
        worst_constrained = std::max(
            worst_constrained,
            occupancy[static_cast<std::size_t>(Regime::Constrained)]);
        const std::ptrdiff_t slot = plan.slot_of[i];
        if (!integrate || slot < 0)
            continue;
        const auto s = static_cast<std::size_t>(slot);
        if (!accumulate(ws.sample.phases, plan.base_factor[s],
                        plan.target_weeks[s], plan.foundry_start,
                        ws.done[s]))
            return std::nullopt;
        ws.mean_capacity[s] =
            meanCapacity(ws.sample.phases, spec.horizon_weeks);
    }
    return regimeOf(worst_outage, worst_constrained, spec);
}

/** The base market with each disrupted slot at its averaged factor. */
MarketConditions
averagedMarket(const RunPlan& plan, const MarketConditions& base_market,
               const std::vector<double>& mean_capacity)
{
    MarketConditions averaged = base_market;
    for (std::size_t s = 0; s < plan.processes.size(); ++s) {
        if (plan.disrupted[s])
            averaged.setCapacityFactor(plan.processes[s],
                                       plan.base_factor[s] *
                                           mean_capacity[s]);
    }
    return averaged;
}

/**
 * Quantiles and bootstrap mean-CI of @p samples. The bootstrap picks
 * samples by their path order, so it runs before the percentile
 * selection reorders them.
 */
EnsembleDistribution
distributionOf(std::vector<double>& samples, Rng& bootstrap_rng,
               std::size_t resamples, double coverage,
               std::vector<double>& means)
{
    EnsembleDistribution dist;
    if (samples.empty())
        return dist;
    RunningStats moments;
    for (const double sample : samples)
        moments.add(sample);
    dist.mean = moments.mean();
    if (resamples == 0 || samples.size() == 1) {
        dist.ci_lo = dist.mean;
        dist.ci_hi = dist.mean;
    } else {
        // Percentile bootstrap of the mean: resample paths with
        // replacement from a dedicated seeded stream (serial, so the
        // CI is thread-count invariant like everything else here).
        means.clear();
        const std::size_t n = samples.size();
        const UniformIntSampler pick(n);
        for (std::size_t b = 0; b < resamples; ++b) {
            double sum = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                sum += samples[pick(bootstrap_rng)];
            means.push_back(sum / static_cast<double>(n));
        }
        const Interval interval = selectPercentileInterval(means, coverage);
        dist.ci_lo = interval.lo;
        dist.ci_hi = interval.hi;
    }
    static constexpr double kQuantiles[] = {5.0, 50.0, 95.0};
    double quantiles[3] = {};
    selectPercentiles(samples, kQuantiles, quantiles);
    dist.p5 = quantiles[0];
    dist.p50 = quantiles[1];
    dist.p95 = quantiles[2];
    return dist;
}

EnsembleGroup
makeGroup(std::string label, std::vector<double>& ttm,
          std::vector<double>& cas, std::uint64_t bootstrap_seed,
          std::uint64_t group_index, const EnsembleOptions& options,
          std::vector<double>& means)
{
    EnsembleGroup group;
    group.label = std::move(label);
    group.count = ttm.size();
    Rng bootstrap_rng(derivePathSeed(bootstrap_seed, group_index));
    group.ttm = distributionOf(ttm, bootstrap_rng,
                               options.bootstrap_resamples,
                               options.bootstrap_coverage, means);
    group.cas = distributionOf(cas, bootstrap_rng,
                               options.bootstrap_resamples,
                               options.bootstrap_coverage, means);
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
    return regimeOf(worst_outage, worst_constrained, spec);
}

EnsembleRunner::EnsembleRunner(TechnologyDb db,
                               TtmModel::Options model_options)
    : _db(std::move(db)), _model_options(model_options)
{}

PointBatch<EnsemblePath>
EnsembleRunner::evaluatePaths(const ChipDesign& design, double n_chips,
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

    const TimelineTtmModel timeline_model(
        TtmModel(_db, _model_options));
    const CasModel cas_model(TtmModel(_db, _model_options));
    // Path CAS runs on the compiled kernel at the path's capacity
    // factors; the scalar CasModel is the fallback of a path the
    // kernel cannot certify and gives the identical value or error.
    const std::optional<CompiledDesign> compiled =
        CompiledDesign::tryCompile(design, _db, _model_options,
                                   base_market, n_chips);
    std::map<std::string, double> queue_weeks;
    for (const auto& [node, weeks] : base_market.queueWeeksByNode())
        queue_weeks.emplace(node, weeks.value());
    const RunPlan plan =
        planRun(design, n_chips, base_market, spec,
                timeline_model.staticModel(), queue_weeks);
    const std::vector<std::string> processes = designProcesses(design);

    // The scalar chain: the reference every flat path equals, and the
    // evaluation of a path (or run) the flat integration cannot certify.
    const auto scalarPath = [&](std::size_t k) {
        const ScenarioPath scenario =
            sampleScenarioPath(spec, options.seed, k);
        EnsemblePath value;
        value.label = classifyScenarioPath(scenario, spec);
        const MarketTimeline market =
            lowerScenarioPath(scenario, base_market, processes);
        value.ttm = finiteOr(timeline_model
                                 .evaluate(design, n_chips, market,
                                           queue_weeks)
                                 .total()
                                 .value(),
                             DiagCode::NonFiniteTtm, "ensemble TTM");
        MarketConditions averaged = base_market;
        for (const std::string& process : processes) {
            const auto it = scenario.find(process);
            if (it == scenario.end())
                continue;
            averaged.setCapacityFactor(
                process, base_market.capacityFactor(process) *
                             it->second.meanCapacity());
        }
        value.cas = finiteOr(cas_model.cas(design, n_chips, averaged),
                             DiagCode::NonFiniteCas, "ensemble CAS");
        return value;
    };

    const auto evaluatePath = [&](std::size_t k) {
        thread_local PathWorkspace ws;
        const std::optional<Regime> label =
            plan.ok ? samplePath(plan, spec, options.seed, k, true, ws)
                    : std::nullopt;
        if (!label)
            return scalarPath(k);
        EnsemblePath value;
        value.label = *label;
        // TimelineTtmModel::evaluate's fab and total sums over the
        // integrated production, in its order.
        double last_done = plan.foundry_start;
        for (std::size_t s = 0; s < plan.processes.size(); ++s)
            last_done = std::max(last_done,
                                 ws.done[s] + plan.latency_weeks[s]);
        value.ttm = finiteOr(plan.design_weeks + plan.tapeout_weeks +
                                 (last_done - plan.foundry_start) +
                                 plan.packaging_weeks,
                             DiagCode::NonFiniteTtm, "ensemble TTM");
        // CAS (Eq. 8) is defined against a static market; evaluate it
        // at the path's time-averaged capacity per node, composed with
        // the base factors.
        double cas = 0.0;
        bool compiled_ok = false;
        if (compiled.has_value()) {
            ws.capacity_factors.clear();
            for (std::size_t s = 0; s < plan.processes.size(); ++s)
                ws.capacity_factors.push_back(
                    plan.disrupted[s]
                        ? plan.base_factor[s] * ws.mean_capacity[s]
                        : plan.base_factor[s]);
            compiled_ok = compiled->casOne(
                CompiledDesign::kNominal, kCasNormalization,
                ws.capacity_factors.data(), &cas);
        }
        if (!compiled_ok)
            cas = cas_model.cas(
                design, n_chips,
                averagedMarket(plan, base_market, ws.mean_capacity));
        value.cas = finiteOr(cas, DiagCode::NonFiniteCas, "ensemble CAS");
        return value;
    };

    PointKernel<EnsemblePath> points;
    points.name = kEnsembleKernelName;
    points.seed = options.seed;
    points.count = options.paths;
    points.point = evaluatePath;
    points.width = 2;
    points.save = [](const EnsemblePath& value, double* slots) {
        slots[0] = value.ttm;
        slots[1] = value.cas;
    };
    points.restore = [&](std::size_t k, const double* slots) {
        // Restored bit-exactly; the regime label is recomputed from
        // the (deterministic, cheap) sampling pass — no model
        // evaluation.
        thread_local PathWorkspace ws;
        EnsemblePath value;
        value.ttm = slots[0];
        value.cas = slots[1];
        value.label = *samplePath(plan, spec, options.seed, k, false, ws);
        return value;
    };
    return runPoints(options, points);
}

EnsembleResult
EnsembleRunner::run(const ChipDesign& design, double n_chips,
                    const MarketConditions& base_market,
                    const EnsembleSpec& spec,
                    const EnsembleOptions& options) const
{
    const PointBatch<EnsemblePath> paths =
        evaluatePaths(design, n_chips, base_market, spec, options);

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
        const EnsemblePath& value = paths.values[k];
        const std::size_t regime =
            static_cast<std::size_t>(value.label);
        ttm_by_regime[regime].push_back(value.ttm);
        cas_by_regime[regime].push_back(value.cas);
        ttm_all.push_back(value.ttm);
        cas_all.push_back(value.cas);
    }
    result.paths_completed = ttm_all.size();
    std::vector<double> means;
    means.reserve(options.bootstrap_resamples);
    for (std::size_t r = 0; r < kRegimeCount; ++r)
        result.regimes[r] =
            makeGroup(regimeName(static_cast<Regime>(r)),
                      ttm_by_regime[r], cas_by_regime[r],
                      options.bootstrap_seed, r, options, means);
    result.overall = makeGroup("all", ttm_all, cas_all,
                               options.bootstrap_seed, kRegimeCount,
                               options, means);
    return result;
}

} // namespace ttmcas
