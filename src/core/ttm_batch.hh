#ifndef TTMCAS_CORE_TTM_BATCH_HH
#define TTMCAS_CORE_TTM_BATCH_HH

/**
 * @file
 * Structure-of-arrays batch evaluation of the TTM/CAS hot loop.
 *
 * The scalar path (`TtmModel::evaluate` driven through
 * `UncertaintyAnalysis::ttmWithFactors`) rebuilds a scaled ChipDesign,
 * a scaled TechnologyDb, and a TtmModel — three allocating copies plus
 * a dozen `std::string`-keyed node lookups — for *every* Monte-Carlo
 * sample. A CompiledDesign performs all of that work once: it resolves
 * every process-node lookup, bakes the per-node constants (die-per-
 * wafer geometry, yield parameters, effort scales, phase latencies,
 * market capacity factors and queue backlogs) into flat arrays, and
 * then evaluates Eq. 1–7 over N `InputFactors` per call with
 * contiguous SoA buffers, vectorizable inner loops, and zero
 * per-sample allocation.
 *
 * ## The bitwise-identity contract
 *
 * Batch results are bitwise-identical to the scalar path (ctest label
 * `kernel` enforces this). Two rules make that possible:
 *
 *  1. Samples are independent — no cross-sample reduction exists in
 *     Eq. 1–7 — so the kernel may restructure loops *across* samples
 *     freely, but each individual sample's floating-point operation
 *     chain replicates the scalar path op for op (same association,
 *     same `std::max` tie-breaking, same first-wins fab max, same
 *     divide-by-constant instead of multiply-by-inverse).
 *  2. Precomputed constants are restricted to values the scalar path
 *     also computes as a single expression from the same inputs
 *     (e.g. `density * 1e6`, `engineers * 40.0`, the usable wafer
 *     area), which makes them bit-identical to inline computation.
 *
 * `docs/PERFORMANCE.md` documents the FP-safety rules, including the
 * `-ffp-contract=off` build flag on this translation unit that keeps
 * the compiler from fusing `a*b+c` chains into FMAs the scalar TUs do
 * not emit.
 *
 * ## Failure semantics: fast path + exact scalar fallback
 *
 * Error messages embed `file:line` (TTMCAS_REQUIRE), so the batch
 * kernels never raise their own model errors. Every predicate the
 * scalar path REQUIREs is pre-checked per sample; a lane that fails
 * any check is flagged (`ok[i] == 0`) and the *caller* re-runs that
 * sample through the exact scalar chain, which throws the identical
 * diagnostic from the identical source location. Compilation itself is
 * conservative: `tryCompile` returns nullopt whenever any static
 * precondition does not hold (unknown process, non-positive chip
 * count, a custom yield model), and callers then keep the legacy
 * scalar path for the whole kernel.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/design.hh"
#include "core/market.hh"
#include "core/ttm_model.hh"
#include "tech/technology_db.hh"

namespace ttmcas {

/**
 * Which evaluation engine a kernel should use. The batch path is the
 * default; the scalar path is kept as the reference oracle the
 * `kernel`-labeled identity tests compare against.
 */
enum class EvalPath
{
    kBatch,  ///< compiled SoA kernels with exact scalar fallback
    kScalar, ///< legacy per-sample object construction (the oracle)
};

/**
 * A ChipDesign x TechnologyDb x TtmModel::Options x MarketConditions
 * x n_chips tuple compiled to flat per-die / per-process constant
 * arrays, plus the batch kernels that evaluate the model over them.
 *
 * Instances are immutable after compilation and safe to share across
 * threads; the mutable evaluation scratch lives in thread-local
 * workspaces inside the kernels.
 */
class CompiledDesign
{
  public:
    /** Factor vector layout (matches uncertainty.hh's InputFactors). */
    using Factors = std::array<double, 6>;

    /**
     * Compile, or return nullopt when any static precondition of the
     * fast path fails (empty db, invalid base design, unknown process,
     * n_chips <= 0, non-positive team size, missing/custom yield
     * model without per-die overrides). Callers must fall back to the
     * scalar path in that case.
     */
    static std::optional<CompiledDesign>
    tryCompile(const ChipDesign& design, const TechnologyDb& db,
               const TtmModel::Options& model_options,
               const MarketConditions& market, double n_chips);

    /** Number of process nodes the design uses (processNodes order). */
    std::size_t processCount() const { return _nodes.size(); }

    /**
     * Index of @p process in the design's processNodes() order, or -1
     * when the design has no die on that node.
     */
    int processIndex(const std::string& process) const;

    /**
     * Batch TTM kernel: evaluate Eq. 1–7 for @p n factor vectors given
     * as six SoA columns (factors[k][i] is input k of sample i). For
     * each lane, either ok[i] == 1 and out[i] holds the TTM total in
     * weeks, bitwise-identical to the scalar path — or ok[i] == 0,
     * out[i] is unspecified, and the caller must re-run sample i
     * through the scalar chain (which throws the scalar diagnostic).
     * Records ttm.batch.* metrics and counts successful lanes into
     * ttm.evaluations.
     */
    void ttmBatch(const std::array<const double*, 6>& factors,
                  std::size_t n, double* out, unsigned char* ok) const;

    /** Single-sample wrapper over ttmBatch (batch of one). */
    bool ttmOne(const Factors& factors, double* out) const;

    /**
     * Single-sample TTM with the baked market capacity factors
     * replaced by @p capacity_factors (length processCount(), indexed
     * in processNodes order) — the hook capacitySweep and the CAS
     * derivative use. Null restores the baked factors.
     */
    bool ttmOneAt(const Factors& factors,
                  const double* capacity_factors, double* out) const;

    /**
     * Single-sample normalized CAS (Eq. 8): central-difference TTM
     * derivative against each used node's effective wafer rate, exactly
     * replicating CasModel::cas over the scaled model. The die-phase
     * work (areas, yields, wafer counts, tapeout/packaging sums) is
     * factor-only and computed once; only the fab phase is re-run per
     * perturbation, which keeps each perturbed evaluation bitwise
     * equal to a full scalar evaluate. @p capacity_factors as in
     * ttmOneAt. Returns false (caller falls back) when any scalar
     * REQUIRE would fire.
     */
    bool casOne(const Factors& factors, double derivative_rel_step,
                double normalization, const double* capacity_factors,
                double* out) const;

    /**
     * Batch normalized CAS (Eq. 8) over @p n factor vectors given as
     * six SoA columns — the kernel behind sweep workloads whose CAS
     * axis would otherwise pay casOne's per-call die phase N times.
     * The die phase runs once for all lanes; per process node, the
     * per-lane central-difference step (which depends on each lane's
     * wafer-rate factor) is materialized as a capacity-factor column
     * and the fab phase re-runs twice with that one node's factor
     * varying per lane, so every lane's floating-point chain is
     * identical to casOne's — and therefore to the scalar path
     * (ctest -L kernel pins all three). ok/out behave as in ttmBatch:
     * a cleared lane must be re-run through the scalar chain.
     * @p capacity_factors as in ttmOneAt.
     */
    void casBatch(const std::array<const double*, 6>& factors,
                  std::size_t n, double derivative_rel_step,
                  double normalization, const double* capacity_factors,
                  double* out, unsigned char* ok) const;

    /**
     * Batch wafer-demand kernel N_W(d, n, p) at the design process
     * with index @p process_index (pass the processIndex() result; -1
     * means the demand is the empty sum). Inputs are SoA columns of
     * the N_TT and D0 factors (the two inputs sampleWaferDemand
     * varies); ok/out behave as in ttmBatch. Records ttm.batch.*
     * metrics like ttmBatch.
     */
    void waferDemandBatch(int process_index, const double* ntt_factors,
                          const double* d0_factors, std::size_t n,
                          double* out, unsigned char* ok) const;

    /** Single-sample wrapper over waferDemandBatch. */
    bool waferDemandOne(int process_index, double ntt_factor,
                        double d0_factor, double* out) const;

  private:
    struct CompiledNode
    {
        std::string name;
        double tapeout_effort = 0.0;   ///< E_tapeout(p)
        double testing_effort = 0.0;   ///< E_testing(p)
        double packaging_effort = 0.0; ///< E_package(p)
        double d0 = 0.0;               ///< base defect density
        double kwpm = 0.0;             ///< base wafer rate (kw/month)
        double lfab = 0.0;             ///< base foundry latency, weeks
        double losat = 0.0;            ///< base OSAT latency, weeks
        double capacity_factor = 1.0;  ///< baked market factor
        double queue_weeks = 0.0;      ///< baked queue backlog, weeks
        double queue_extra_wafers = 0.0; ///< additive wafer backlog
        bool has_queue_extra = false;  ///< additive entry present?
    };

    struct CompiledDie
    {
        double total_transistors = 0.0;  ///< base N_TT
        double unique_transistors = 0.0; ///< base N_UT
        double dies_needed = 0.0;        ///< n_chips * count_per_package
        double min_area = 0.0;
        double area_override = 0.0;      ///< base pinned area
        double yield_override = 0.0;
        double density_denom = 0.0;      ///< density_mtr_per_mm2 * 1e6
        bool has_area_override = false;
        bool has_yield_override = false;
        std::uint32_t node = 0;          ///< index into _nodes
    };

    struct Workspace; // thread-local SoA scratch, defined in the .cc

    /** The calling thread's reusable scratch buffers. */
    static Workspace& workspace();

    /**
     * Die phase (factor-only work): scaled transistor counts, areas,
     * yields, per-wafer geometry, wafer demand per process, tapeout
     * and packaging sums. Fills the workspace columns and clears ok
     * lanes that fail a scalar predicate.
     */
    void diePhase(const std::array<const double*, 6>& factors,
                  std::size_t n, Workspace& ws) const;

    /**
     * Fab phase + total under the given per-process capacity factors
     * (null = baked): rates, queue/production times, first-wins max
     * over nodes, Eq. 1 total. Reads the diePhase columns; writes
     * out/ok.
     */
    void fabPhase(const std::array<const double*, 6>& factors,
                  std::size_t n, Workspace& ws,
                  const double* capacity_factors, double* out,
                  unsigned char* ok) const;

    /**
     * fabPhase with one process's capacity factor varying per lane:
     * process @p varying_process reads its factor from the per-lane
     * column @p varying_caps, every other process uses the shared
     * ws.caps value. Each lane's op chain matches a fabPhase call
     * whose caps array held that lane's value — the casBatch
     * workhorse.
     */
    void fabPhaseVarying(const std::array<const double*, 6>& factors,
                         std::size_t n, Workspace& ws,
                         std::size_t varying_process,
                         const double* varying_caps, double* out,
                         unsigned char* ok) const;

    std::vector<CompiledNode> _nodes; ///< processNodes() order
    std::vector<CompiledDie> _dies;   ///< design die order
    double _n_chips = 0.0;
    double _design_time = 0.0;        ///< weeks
    double _engineer_hours_per_week = 0.0; ///< engineers * 40.0
    // Wafer geometry constants (values the scalar path derives from
    // the same inputs as single expressions — see file comment).
    double _scribe_mm = 0.0;
    double _reticle_limit_mm2 = 0.0;
    double _usable_area = 0.0;        ///< pi * r_usable^2
    double _pi_usable_diameter = 0.0; ///< pi * d_usable
    // Negative-binomial yield constants (Eq. 6).
    double _nb_alpha = 0.0;
    double _nb_neg_alpha = 0.0;
    // Largest base value of each scaled node field over the *whole*
    // db: scaledTechnology() scales and re-validates every node, so a
    // factor that overflows any node's field must fall back.
    double _max_db_d0 = 0.0;
    double _max_db_kwpm = 0.0;
    double _max_db_lfab = 0.0;
    double _max_db_losat = 0.0;
};

} // namespace ttmcas

#endif // TTMCAS_CORE_TTM_BATCH_HH
