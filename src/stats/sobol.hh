#ifndef TTMCAS_STATS_SOBOL_HH
#define TTMCAS_STATS_SOBOL_HH

/**
 * @file
 * Variance-based global sensitivity analysis (Sobol 2001).
 *
 * Paper Section 5 and Figure 8: the model's six hardest-to-estimate
 * inputs are varied +/-10% and the *total-effect index* S_T of each
 * input on time-to-market is reported per process node.
 *
 * Implementation: Saltelli's sampling scheme with Jansen's estimators.
 * Two base matrices A and B of N samples each are drawn in the unit
 * hypercube and pushed through the input distributions' quantile
 * functions; for each input i a hybrid matrix A_B^i (A with column i
 * replaced from B) is evaluated. Cost: N * (k + 2) model evaluations.
 *
 *   S_i  = [ (1/N) sum_j f(B)_j * (f(A_B^i)_j - f(A)_j) ] / Var(Y)
 *   S_Ti = [ (1/2N) sum_j (f(A)_j - f(A_B^i)_j)^2 ] / Var(Y)
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/distributions.hh"
#include "support/batch_control.hh"

namespace ttmcas {

/** One uncertain model input: a label plus its sampling distribution. */
struct SensitivityInput
{
    std::string name;
    const Distribution* distribution = nullptr;
};

/**
 * Configuration for a Sobol run. The (k + 2) * N model evaluations are
 * the points of one batch-driver run, indexed f(A)_j = j,
 * f(B)_j = N + j, f(A_B^i)_j = (2 + i) * N + j — the indices that
 * failure reports, fault injection and checkpoints use. A base row
 * survives only when all of its k + 2 evaluations succeeded; under
 * SkipAndRecord the indices are computed over the surviving rows.
 */
struct SobolOptions : BatchControl
{
    /**
     * Serial by default because the model is caller-supplied: opting
     * into parallel.threads > 1 promises the model is safe to call
     * concurrently. Sampling and the Jansen-estimator reductions stay
     * serial, so the indices are bitwise-identical for any thread
     * count.
     */
    SobolOptions() { parallel = ParallelConfig::serial(); }

    /** Base sample count N; total evaluations are N * (k + 2). */
    std::size_t base_samples = 1024;
    /** RNG seed; identical seeds give identical indices. */
    std::uint64_t seed = 0x5eed5eedULL;
    /**
     * Clip tiny negative index estimates (sampling noise) to zero.
     * True by default because the paper reports indices in [0, 1].
     */
    bool clip_negative = true;
    /**
     * Draw the Saltelli base matrices from a 2k-dimensional Halton
     * sequence instead of the RNG: markedly tighter index estimates
     * at the same N (the seed is then ignored).
     */
    bool use_low_discrepancy = false;
};

/** Result of a Sobol sensitivity analysis. */
struct SobolResult
{
    std::vector<std::string> input_names;
    std::vector<double> first_order;  ///< S_i per input
    std::vector<double> total_effect; ///< S_Ti per input
    double output_mean = 0.0;
    double output_variance = 0.0;
    std::size_t evaluations = 0;

    /** Index of the input with the largest total effect. */
    std::size_t dominantInput() const;
};

/**
 * Row-level evaluations retained for resampling: f(A)_j, f(B)_j, and
 * f(A_B^i)_j for every input i and base row j.
 */
struct SobolRowData
{
    std::vector<double> f_a;
    std::vector<double> f_b;
    /** f_ab[i][j]: input i's hybrid matrix, row j. */
    std::vector<std::vector<double>> f_ab;
};

/** Per-input confidence intervals from a bootstrap over base rows. */
struct SobolConfidence
{
    std::vector<std::pair<double, double>> first_order;  ///< (lo, hi)
    std::vector<std::pair<double, double>> total_effect; ///< (lo, hi)
};

/**
 * Run a Sobol analysis of @p model over @p inputs.
 *
 * @param inputs named input distributions (all pointers non-null)
 * @param model deterministic function of one sample vector (size = #inputs)
 * @param options sampling configuration
 * @param rows when non-null, receives the row-level evaluations so
 *        sobolBootstrapCi can attach confidence intervals without
 *        re-running the model
 */
SobolResult
sobolAnalyze(const std::vector<SensitivityInput>& inputs,
             const std::function<double(const std::vector<double>&)>& model,
             const SobolOptions& options = {},
             SobolRowData* rows = nullptr);

/**
 * Percentile-bootstrap confidence intervals for the indices: base rows
 * are resampled with replacement and the Jansen estimators recomputed
 * per resample. No further model evaluations are needed.
 *
 * @param rows row data captured by sobolAnalyze
 * @param resamples bootstrap replicate count (>= 10)
 * @param coverage central coverage of the intervals, in (0, 1)
 * @param seed resampling RNG seed
 * @param clip_negative clip index replicates at zero, matching
 *        SobolOptions::clip_negative
 * @param parallel resample-loop parallelism; the pick indices are
 *        pre-drawn serially, so the intervals are bitwise-identical
 *        to the serial path for any thread count
 */
SobolConfidence
sobolBootstrapCi(const SobolRowData& rows, std::size_t resamples = 500,
                 double coverage = 0.95, std::uint64_t seed = 0xb007,
                 bool clip_negative = true,
                 const ParallelConfig& parallel = ParallelConfig::serial());

/**
 * Full configuration for sobolBootstrapCi: one resample is one point
 * of the batch driver (2k checkpoint slots: S_i then S_Ti). Failed or
 * stopped replicates are dropped from the percentile intervals; at
 * least two must survive.
 */
struct SobolBootstrapOptions : BatchControl
{
    /** Serial by default, like SobolOptions (picks are pre-drawn). */
    SobolBootstrapOptions() { parallel = ParallelConfig::serial(); }

    /** Bootstrap replicate count (>= 10). */
    std::size_t resamples = 500;
    /** Central coverage of the intervals, in (0, 1). */
    double coverage = 0.95;
    /** Resampling RNG seed. */
    std::uint64_t seed = 0xb007;
    /** Clip index replicates at zero (see SobolOptions). */
    bool clip_negative = true;
};

/** sobolBootstrapCi with the full option set (failure isolation). */
SobolConfidence sobolBootstrapCi(const SobolRowData& rows,
                                 const SobolBootstrapOptions& options);

} // namespace ttmcas

#endif // TTMCAS_STATS_SOBOL_HH
