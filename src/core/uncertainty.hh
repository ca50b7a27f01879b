#ifndef TTMCAS_CORE_UNCERTAINTY_HH
#define TTMCAS_CORE_UNCERTAINTY_HH

/**
 * @file
 * Input-uncertainty propagation and Sobol sensitivity for the TTM/CAS
 * models (paper Section 5, Figs. 7-9, 11, 12).
 *
 * The paper varies six inputs that foundries and design firms guard
 * closely — total transistor count N_TT, unique transistor count N_UT,
 * defect density D0, wafer production rate muW, foundry latency L_fab,
 * and OSAT latency L_OSAT — each uniformly within a relative band
 * (+/-10% for the reported means, +/-10% and +/-25% for the CI bands).
 *
 * Each uncertain input is modeled as a multiplicative factor applied to
 * the design (N_TT, N_UT) or to every process node of the technology
 * snapshot (D0, muW, L_fab, L_OSAT); factor order matches the paper's
 * Fig. 8 rows.
 */

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cas.hh"
#include "core/design.hh"
#include "core/market.hh"
#include "core/ttm_batch.hh"
#include "core/ttm_model.hh"
#include "stats/sobol.hh"
#include "stats/summary.hh"
#include "support/batch_control.hh"

namespace ttmcas {

/** The paper's six varied inputs, in Fig. 8 row order. */
enum class UncertainInput : std::size_t
{
    TotalTransistors = 0,  // N_TT
    UniqueTransistors = 1, // N_UT
    DefectDensity = 2,     // D0
    WaferRate = 3,         // muW
    FoundryLatency = 4,    // L_fab
    OsatLatency = 5,       // L_OSAT
};

/** Number of uncertain inputs. */
inline constexpr std::size_t kUncertainInputCount = 6;

/** Display name of an uncertain input ("NTT", "NUT", "D0", ...). */
std::string uncertainInputName(UncertainInput input);

/** A vector of multiplicative factors, one per uncertain input. */
using InputFactors = std::array<double, kUncertainInputCount>;

/** All-ones factors (the nominal model). */
InputFactors nominalFactors();

/** Monte-Carlo / Sobol driver around a TtmModel. */
class UncertaintyAnalysis
{
  public:
    /**
     * Sampling configuration; parallelism, failure handling, fault
     * injection, cancellation and checkpoint/resume come from
     * BatchControl (every sample is one point of the batch driver).
     */
    struct Options : BatchControl
    {
        /** Relative half-width of each input's uniform band. */
        double band = 0.10;
        /** Monte-Carlo sample count (paper: 1024). */
        std::size_t samples = 1024;
        /**
         * RNG seed. Each sample gets its own stream split off it, so
         * results are bitwise-identical for any thread count.
         */
        std::uint64_t seed = 2023;
        /**
         * Evaluation engine: the compiled SoA batch kernels (default)
         * or the legacy scalar path. Values are bitwise identical
         * either way (ctest -L kernel enforces it); kScalar exists as
         * the reference oracle. When a configuration cannot be
         * compiled (custom yield model, invalid base design, ...) the
         * kernels fall back to the scalar path automatically.
         */
        EvalPath eval_path = EvalPath::kBatch;
    };

    /**
     * @param db nominal technology snapshot
     * @param model_options forwarded to each perturbed TtmModel
     */
    explicit UncertaintyAnalysis(TechnologyDb db,
                                 TtmModel::Options model_options = {});

    /** Design copy with N_TT/N_UT (and pinned areas) scaled. */
    static ChipDesign scaleDesign(const ChipDesign& design,
                                  double ntt_factor, double nut_factor);

    /** Technology copy with D0/muW/L_fab/L_OSAT scaled on every node. */
    TechnologyDb scaledTechnology(double d0_factor, double mu_factor,
                                  double lfab_factor,
                                  double losat_factor) const;

    /** TTM total under one set of input factors. */
    Weeks ttmWithFactors(const ChipDesign& design, double n_chips,
                         const MarketConditions& market,
                         const InputFactors& factors) const;

    /** Normalized CAS under one set of input factors. */
    double casWithFactors(const ChipDesign& design, double n_chips,
                          const MarketConditions& market,
                          const InputFactors& factors) const;

    /** Monte-Carlo TTM samples (weeks). */
    std::vector<double> sampleTtm(const ChipDesign& design, double n_chips,
                                  const MarketConditions& market,
                                  const Options& options) const;

    /** Monte-Carlo CAS samples (normalized). */
    std::vector<double> sampleCas(const ChipDesign& design, double n_chips,
                                  const MarketConditions& market,
                                  const Options& options) const;

    /**
     * Monte-Carlo wafer-demand samples N_W(d, n, p) at @p process —
     * the demand distribution a capacity-reservation decision needs
     * (econ/reservation). Only the demand-relevant inputs (N_TT, D0)
     * are varied; rates and latencies do not change wafer counts.
     */
    std::vector<double>
    sampleWaferDemand(const ChipDesign& design, double n_chips,
                      const std::string& process,
                      const Options& options) const;

    /** Summary (mean, CI percentiles, ...) of TTM samples. */
    Summary ttmSummary(const ChipDesign& design, double n_chips,
                       const MarketConditions& market,
                       const Options& options) const;

    /** Summary of CAS samples. */
    Summary casSummary(const ChipDesign& design, double n_chips,
                       const MarketConditions& market,
                       const Options& options) const;

    /**
     * Sobol total-effect sensitivity of TTM to the six inputs
     * (Fig. 8). base_samples defaults to the paper's 1024.
     */
    SobolResult ttmSensitivity(const ChipDesign& design, double n_chips,
                               const MarketConditions& market,
                               const Options& options) const;

  private:
    TechnologyDb _db;
    TtmModel::Options _model_options;
};

} // namespace ttmcas

#endif // TTMCAS_CORE_UNCERTAINTY_HH
