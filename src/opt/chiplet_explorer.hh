#ifndef TTMCAS_OPT_CHIPLET_EXPLORER_HH
#define TTMCAS_OPT_CHIPLET_EXPLORER_HH

/**
 * @file
 * Joint TTM/CAS/cost chiplet-economics Pareto explorer.
 *
 * The paper's five case studies compare hand-picked designs one at a
 * time. The explorer instead sweeps a *design space* — partition
 * count x node assignment x redundancy level x production split — and
 * reports the 3-D Pareto frontier over
 *
 *   TTM   (weeks, minimize)    Eq. 1-7 via core/ttm_batch
 *   CAS   (normalized, maximize)  Eq. 8 via casOne
 *   cost  ($, minimize)        redundancy-aware chiplet decomposition
 *                              (econ/cost_model evaluateChiplet)
 *
 * A candidate with index k decodes to a pure function of (spec, k):
 * the base architecture's transistor budget is split into `partitions`
 * identical chiplets on `node` (count_per_package = partitions, one
 * tapeout for the type), `spares` extra chiplets are bonded per Liu's
 * redundancy model (they are fabricated and bonded, so they lengthen
 * fab/packaging too — redundancy couples into all three objectives),
 * and a `split_fraction` < 1 second-sources the remainder of the
 * volume on the spec's secondary node:
 *
 *   TTM  = max(TTM_primary(f n), TTM_secondary((1-f) n))
 *   cost = cost_primary(f n) + cost_secondary((1-f) n)
 *   CAS  = (1/CAS_primary + 1/CAS_secondary)^(-1)
 *          (slope sums of Eq. 8 add across the two pipelines)
 *
 * TTM and cost combine as in SplitPlanner; CAS does not.
 * SplitPlanner::cas differentiates the combined max(TTM_p, TTM_s), so
 * only the binding pipeline's slope counts, while this harmonic rule
 * differentiates each pipeline on its own and adds both slopes. For
 * A11 at 1e7 chips on 7nm with 20% on 14nm, SplitPlanner::cas gives
 * 217.53 and this rule 128.01 (test ChipletSplitCas).
 *
 * Candidates are independent, so the sweep runs through
 * support/threadpool bitwise-identically at any thread count, with
 * the full resilience stack: skip-and-record failure isolation,
 * cooperative cancel/deadline, deterministic retry, and a
 * 3-points-per-candidate checkpoint giving bitwise-identical
 * straight vs killed-and-resumed runs. docs/ECONOMICS.md walks
 * through a complete sweep.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cas.hh"
#include "core/design.hh"
#include "core/market.hh"
#include "core/ttm_batch.hh"
#include "core/ttm_model.hh"
#include "econ/cost_model.hh"
#include "support/batch_control.hh"
#include "tech/technology_db.hh"

namespace ttmcas {


/** The checkpoint kernel name of chiplet Pareto sweeps. */
inline constexpr const char* kChipletKernelName = "chiplet_pareto";

/** Upper bound on candidates per sweep (grid-explosion guard). */
inline constexpr std::size_t kMaxChipletCandidates = 4096;

/**
 * The swept design space. Every axis is an explicit list, so the
 * candidate grid is the cross product
 * partitions x nodes x redundancy x split_fractions, enumerated in a
 * canonical order (split fastest, partitions slowest — candidateAt).
 */
struct ChipletSweepSpec
{
    /** Chiplet counts the transistor budget is split into. */
    std::vector<int> partitions = {1, 2, 4};
    /** Candidate process-node assignments for the chiplet type. */
    std::vector<std::string> nodes;
    /** Liu spare-chiplet counts k (see ChipletCostParams). */
    std::vector<int> redundancy = {0, 1};
    /** Production fractions built on the assigned node, each in (0, 1]. */
    std::vector<double> split_fractions = {1.0};
    /** Second-source node for fractions < 1 ("" = single-source only). */
    std::string secondary_node;
    /**
     * Cost-model knobs shared by every candidate; spare_chiplets is
     * overwritten per candidate from the redundancy axis.
     */
    ChipletCostParams cost;

    /** Cross-product size of the grid. */
    std::size_t candidateCount() const;

    /** All-at-once validation (empty = valid). */
    std::vector<std::string> violations() const;

    /** Default sweep over @p processes (a design's nodes). */
    static ChipletSweepSpec
    defaultsFor(const std::vector<std::string>& processes);
};

/** One decoded grid point. */
struct ChipletCandidate
{
    int partitions = 1;
    std::string node;
    int spares = 0;
    double split_fraction = 1.0;

    bool operator==(const ChipletCandidate&) const = default;
};

/**
 * Candidate @p index of the grid — pure function of (spec, index),
 * so any thread and any evaluation order decode identically.
 * Precondition: index < spec.candidateCount().
 */
ChipletCandidate candidateAt(const ChipletSweepSpec& spec,
                             std::size_t index);

/** One evaluated candidate of the sweep. */
struct ChipletPoint
{
    std::size_t index = 0; ///< grid index (candidateAt order)
    ChipletCandidate candidate;
    double ttm_weeks = 0.0;
    double cas = 0.0;  ///< normalized (paper scale)
    double cost = 0.0; ///< total $, NRE + manufacturing

    bool operator==(const ChipletPoint&) const = default;
};

/** The full sweep output: every completed point plus its frontier. */
struct ChipletParetoResult
{
    std::size_t candidates_requested = 0;
    std::size_t candidates_completed = 0;
    /** Completed candidates in grid-index order. */
    std::vector<ChipletPoint> points;
    /**
     * Indices *into points* of the non-dominated set under
     * (minimize TTM, maximize CAS, minimize cost), in points order.
     */
    std::vector<std::size_t> frontier;

    bool operator==(const ChipletParetoResult&) const = default;
};

/**
 * Knobs of one sweep. Every candidate is one batch-driver point; the
 * results are thread-count invariant. A checkpoint stores 3 values
 * per candidate (TTM, CAS, cost), bound to (kChipletKernelName, seed,
 * 3 * candidateCount()).
 */
struct ChipletExplorerOptions : BatchControl
{
    /**
     * Sweep identity seed. The sweep itself is deterministic (no
     * sampling); the seed only binds the checkpoint and the cache key
     * so resumed runs must match their parent.
     */
    std::uint64_t seed = 2023;
    /** CAS normalization divisor (paper scale). */
    double cas_normalization = kCasNormalization;
    /**
     * Engine of the TTM/CAS axes: compiled batch kernels (default,
     * with exact scalar fallback per candidate) or the scalar oracle.
     * Results are bitwise identical either way.
     */
    EvalPath eval_path = EvalPath::kBatch;
};

/** Sweeps the chiplet design space and prunes dominated points. */
class ChipletExplorer
{
  public:
    /**
     * @param db technology snapshot (copied)
     * @param model_options forwarded to the underlying TtmModel
     * @param cost_options forwarded to the underlying CostModel
     */
    explicit ChipletExplorer(TechnologyDb db,
                             TtmModel::Options model_options = {},
                             CostModel::Options cost_options = {});

    /**
     * Run the sweep. @p base supplies the transistor budget and design
     * time; its own die partitioning is ignored. Throws ModelError
     * when @p spec is invalid, a spec node is unknown to the
     * technology, or a resume checkpoint does not match; per-candidate
     * failures follow options.failure_policy.
     */
    ChipletParetoResult run(const ChipDesign& base, double n_chips,
                            const MarketConditions& market,
                            const ChipletSweepSpec& spec,
                            const ChipletExplorerOptions& options) const;

    /**
     * The synthesized candidate architecture: @p partitions identical
     * chiplets on @p node splitting @p base's transistor budget, one
     * die type (count_per_package = partitions). Spares are *not*
     * included here; run() adds them for fab evaluation and passes
     * them to the cost model as ChipletCostParams::spare_chiplets.
     */
    static ChipDesign partitionDesign(const ChipDesign& base,
                                      int partitions,
                                      const std::string& node);

  private:
    TechnologyDb _db;
    TtmModel::Options _model_options;
    CostModel::Options _cost_options;
};

} // namespace ttmcas

#endif // TTMCAS_OPT_CHIPLET_EXPLORER_HH
