#ifndef TTMCAS_CORE_ENSEMBLE_HH
#define TTMCAS_CORE_ENSEMBLE_HH

/**
 * @file
 * Scenario-path ensembles: Monte-Carlo over stochastic disruption
 * paths instead of over input perturbations.
 *
 * UncertaintyAnalysis answers "how does TTM/CAS move when the model
 * *inputs* wiggle"; the ensemble runner answers the supply-chain
 * question the related work poses: "what is the TTM/CAS distribution
 * of this design when the *supply network itself* evolves
 * stochastically" — regimes switching, disruptions clustering,
 * capacity ramping back after outages (stats/disruption.hh).
 *
 * The pipeline per path k of N:
 *
 *  1. sample — every node of the EnsembleSpec draws a DisruptionPath
 *     from its own RNG stream, split off a per-path parent seeded by
 *     derivePathSeed(seed, k): pure function of (spec, seed, k).
 *  2. lower — the sampled path becomes a core/timeline
 *     CapacityTimeline per node (composed multiplicatively with the
 *     base market's static capacity factors).
 *  3. evaluate — TimelineTtmModel integrates TTM over the evolving
 *     capacity; CAS is evaluated at the path's time-averaged market
 *     (the static-market Eq. 8 kernel, unchanged).
 *  4. classify — the path is labeled by its dominant regime
 *     (outage / constrained / nominal occupancy thresholds), and the
 *     runner reports TTM/CAS quantiles + bootstrap CIs per regime.
 *
 * Steps 1-3 are the scalar reference (sampleScenarioPath,
 * lowerScenarioPath, TimelineTtmModel). The runner computes the same
 * numbers on flat per-thread buffers: it samples each node into reused
 * storage, evaluates the path-independent upstream TTM once per run,
 * integrates the composed phases directly and takes CAS from the
 * compiled kernel (EnsembleRunner::evaluatePaths).
 *
 * The runner reuses the full PR 1/2/5 machinery: per-path outcome
 * slots evaluated by parallelFor (thread-count invariant),
 * skip-and-record failure isolation, cooperative cancel/deadline,
 * deterministic retry, and 2-points-per-path checkpoint/resume with
 * bitwise-identical resumed results. docs/SCENARIOS.md walks through
 * a complete example.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/design.hh"
#include "core/market.hh"
#include "core/timeline.hh"
#include "core/ttm_model.hh"
#include "stats/batch_driver.hh"
#include "stats/disruption.hh"
#include "support/batch_control.hh"
#include "tech/technology_db.hh"

namespace ttmcas {


/** Upper bound on disruption-process nodes per spec. */
inline constexpr std::size_t kMaxEnsembleNodes = 64;

/** The checkpoint kernel name of ensemble runs. */
inline constexpr const char* kEnsembleKernelName = "ensemble_ttm";

/** The full disruption configuration of one ensemble. */
struct EnsembleSpec
{
    /** Modeled horizon in weeks; capacity reverts to nominal after. */
    double horizon_weeks = 104.0;
    /** Regime-chain step in weeks. */
    double step_weeks = 1.0;
    /** Per-node disruption processes (sorted; order is canonical). */
    std::map<std::string, DisruptionProcessParams> nodes;
    /**
     * A path whose worst node spends at least this fraction of the
     * horizon in outage is labeled "outage".
     */
    double outage_label_fraction = 0.02;
    /** Same threshold for the "constrained" label. */
    double constrained_label_fraction = 0.10;

    /** All-at-once validation (empty = valid). */
    std::vector<std::string> violations() const;

    /** Default (moderate) processes on every one of @p processes. */
    static EnsembleSpec
    defaultsFor(const std::vector<std::string>& processes);
};

/** All node paths of scenario path k: node name -> sampled path. */
using ScenarioPath = std::map<std::string, DisruptionPath>;

/**
 * Sample scenario path @p path_index of the ensemble: one
 * DisruptionPath per spec node, each from its own child stream split
 * off the per-path parent in sorted node order. Pure function of
 * (spec, seed, path_index) — any thread, any evaluation order.
 */
ScenarioPath sampleScenarioPath(const EnsembleSpec& spec,
                                std::uint64_t seed,
                                std::uint64_t path_index);

/**
 * Lower @p path onto the timeline layer for @p processes (a design's
 * nodes): each disrupted node's piecewise factor is multiplied by the
 * base market's static factor for that node; undisrupted nodes get a
 * constant timeline at their base factor.
 */
MarketTimeline lowerScenarioPath(const ScenarioPath& path,
                                 const MarketConditions& base,
                                 const std::vector<std::string>& processes);

/**
 * The dominant-regime label of @p path under the spec's occupancy
 * thresholds (worst node wins; outage outranks constrained).
 */
Regime classifyScenarioPath(const ScenarioPath& path,
                            const EnsembleSpec& spec);

/** The evaluated TTM, CAS and label of one scenario path. */
struct EnsemblePath
{
    double ttm = 0.0; ///< weeks
    double cas = 0.0; ///< normalized CAS
    Regime label = Regime::Nominal;
};

/** Quantiles and a bootstrap mean-CI of one output over one group. */
struct EnsembleDistribution
{
    double mean = 0.0;
    double p5 = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    /** Percentile-bootstrap CI of the mean (lo == hi for 1 path). */
    double ci_lo = 0.0;
    double ci_hi = 0.0;

    bool operator==(const EnsembleDistribution&) const = default;
};

/** One regime group (or the overall group) of an ensemble result. */
struct EnsembleGroup
{
    std::string label; ///< "nominal", "constrained", "outage", "all"
    std::size_t count = 0;
    EnsembleDistribution ttm; ///< weeks
    EnsembleDistribution cas; ///< normalized CAS

    bool operator==(const EnsembleGroup&) const = default;
};

/** The per-regime TTM/CAS distributions of one ensemble run. */
struct EnsembleResult
{
    std::size_t paths_requested = 0;
    std::size_t paths_completed = 0;
    /** Groups indexed by Regime (present even when count == 0). */
    std::array<EnsembleGroup, kRegimeCount> regimes;
    /** All completed paths pooled. */
    EnsembleGroup overall;

    bool operator==(const EnsembleResult&) const = default;
};

/**
 * Knobs of one ensemble run. Every path is one batch-driver point;
 * per-path streams are derived by index (derivePathSeed), so results
 * are bitwise-identical for a given seed regardless of thread count.
 * A checkpoint stores 2 values per path (TTM then CAS), bound to
 * (kEnsembleKernelName, seed, 2 * paths).
 */
struct EnsembleOptions : BatchControl
{
    /** Scenario path count N. */
    std::size_t paths = 256;
    /** Ensemble seed; every path stream derives from it. */
    std::uint64_t seed = 2023;
    /** Bootstrap resamples behind each group's mean CI. */
    std::size_t bootstrap_resamples = 200;
    /** Bootstrap CI coverage. */
    double bootstrap_coverage = 0.95;
    /** Bootstrap RNG seed (independent of the path streams). */
    std::uint64_t bootstrap_seed = 0xb007;
};

/** Fans N scenario paths across the pool and reduces per regime. */
class EnsembleRunner
{
  public:
    /**
     * @param db nominal technology snapshot (copied)
     * @param model_options forwarded to the underlying TtmModel
     */
    explicit EnsembleRunner(TechnologyDb db,
                            TtmModel::Options model_options = {});

    /**
     * Run the ensemble. Throws ModelError when @p spec is invalid or
     * a resume checkpoint does not match; per-path evaluation
     * failures follow options.failure_policy.
     */
    EnsembleResult run(const ChipDesign& design, double n_chips,
                       const MarketConditions& base_market,
                       const EnsembleSpec& spec,
                       const EnsembleOptions& options) const;

    /**
     * The per-path half of run(): every path's TTM, CAS and label,
     * with run()'s validation, failure handling and checkpointing.
     * Path k equals the scalar chain bit for bit —
     * sampleScenarioPath, classifyScenarioPath, lowerScenarioPath and
     * TimelineTtmModel::evaluate, then CasModel::cas at the path's
     * time-averaged capacity factors — and fails with that chain's
     * diagnostic. docs/PERFORMANCE.md explains how the flat path keeps
     * that promise.
     */
    PointBatch<EnsemblePath>
    evaluatePaths(const ChipDesign& design, double n_chips,
                  const MarketConditions& base_market,
                  const EnsembleSpec& spec,
                  const EnsembleOptions& options) const;

  private:
    TechnologyDb _db;
    TtmModel::Options _model_options;
};

} // namespace ttmcas

#endif // TTMCAS_CORE_ENSEMBLE_HH
