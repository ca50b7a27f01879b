#include "stats/sobol.hh"

#include <algorithm>
#include <cmath>

#include "stats/batch_driver.hh"
#include "stats/lowdiscrepancy.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "support/error.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace ttmcas {

namespace {

/**
 * Jansen estimators for one input over aligned row vectors: returns
 * (S_i, S_Ti). The first-order term centres f_B on the pooled @p mean:
 * uncentred, its error scales with mean^2 / variance, which is ~720
 * for TTM. Serial, ascending-j accumulation, so the floating-point
 * association is fixed.
 */
std::pair<double, double>
jansenIndices(const std::vector<double>& f_a, const std::vector<double>& f_b,
              const std::vector<double>& f_abi, double mean, double variance,
              bool clip_negative)
{
    const std::size_t n = f_a.size();
    double first_acc = 0.0;
    double total_acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        first_acc += (f_b[j] - mean) * (f_abi[j] - f_a[j]);
        const double delta = f_a[j] - f_abi[j];
        total_acc += delta * delta;
    }
    if (variance <= 0.0) {
        // A constant model has no variance to attribute.
        return {0.0, 0.0};
    }
    double s_i = first_acc / static_cast<double>(n) / variance;
    double s_ti = total_acc / (2.0 * static_cast<double>(n)) / variance;
    if (clip_negative) {
        s_i = std::max(s_i, 0.0);
        s_ti = std::max(s_ti, 0.0);
    }
    return {s_i, s_ti};
}

} // namespace

std::size_t
SobolResult::dominantInput() const
{
    TTMCAS_REQUIRE(!total_effect.empty(), "dominantInput of empty result");
    return static_cast<std::size_t>(
        std::max_element(total_effect.begin(), total_effect.end()) -
        total_effect.begin());
}

SobolResult
sobolAnalyze(const std::vector<SensitivityInput>& inputs,
             const std::function<double(const std::vector<double>&)>& model,
             const SobolOptions& options, SobolRowData* rows)
{
    const obs::ScopedSpan span("sobol", "sobolAnalyze");
    static const obs::Counter evaluations("sobol.evaluations");

    const std::size_t k = inputs.size();
    const std::size_t n = options.base_samples;
    TTMCAS_REQUIRE(k > 0, "sobolAnalyze needs at least one input");
    TTMCAS_REQUIRE(n >= 2, "sobolAnalyze needs at least two base samples");
    for (const auto& input : inputs) {
        TTMCAS_REQUIRE(input.distribution != nullptr,
                       "sensitivity input '" + input.name +
                           "' has no distribution");
    }

    // Draw the two base matrices in the unit hypercube, then transform
    // through each input's quantile function. The A and B coordinates
    // come from disjoint dimensions (columns i and k+i of one
    // 2k-dimensional stream) so they are independent.
    Rng rng(options.seed);
    HaltonSequence halton(2 * k);
    std::vector<std::vector<double>> mat_a(n, std::vector<double>(k));
    std::vector<std::vector<double>> mat_b(n, std::vector<double>(k));
    for (std::size_t j = 0; j < n; ++j) {
        if (options.use_low_discrepancy) {
            const std::vector<double> point = halton.next();
            for (std::size_t i = 0; i < k; ++i) {
                mat_a[j][i] =
                    inputs[i].distribution->quantile(point[i]);
                mat_b[j][i] =
                    inputs[i].distribution->quantile(point[k + i]);
            }
        } else {
            for (std::size_t i = 0; i < k; ++i) {
                mat_a[j][i] =
                    inputs[i].distribution->quantile(rng.uniform());
                mat_b[j][i] =
                    inputs[i].distribution->quantile(rng.uniform());
            }
        }
    }

    SobolResult result;
    result.evaluations = (k + 2) * n;
    result.first_order.resize(k, 0.0);
    result.total_effect.resize(k, 0.0);
    result.input_names.reserve(k);
    for (const auto& input : inputs)
        result.input_names.push_back(input.name);

    // Every evaluation is one driver point: f(A)_j = j, f(B)_j = n + j,
    // f(A_B^i)_j = (2 + i) * n + j — also the checkpoint index, so a
    // resumed analysis restores exactly what the interrupted one
    // finished, bit-for-bit.
    PointKernel<double> points;
    points.name = "sobolAnalyze";
    points.seed = options.seed;
    points.count = (k + 2) * n;
    points.counter = &evaluations;
    points.point = [&](std::size_t p) {
        const std::size_t block = p / n;
        const std::size_t j = p % n;
        if (block == 0)
            return model(mat_a[j]);
        if (block == 1)
            return model(mat_b[j]);
        // A_B^i: row j of A, column i from B.
        thread_local std::vector<double> hybrid;
        hybrid = mat_a[j];
        hybrid[block - 2] = mat_b[j][block - 2];
        return model(hybrid);
    };
    const PointBatch<double> batch = runPoints(options, points);

    // A base row survives only when A, B, and all k hybrid evaluations
    // of it succeeded; the estimators then run over the surviving rows
    // in ascending j order.
    std::vector<std::size_t> survivors;
    survivors.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
        bool row_ok = true;
        for (std::size_t block = 0; row_ok && block < k + 2; ++block)
            row_ok = batch.done(block * n + j);
        if (row_ok)
            survivors.push_back(j);
    }
    TTMCAS_REQUIRE(survivors.size() >= 2,
                   "sobolAnalyze: fewer than two base rows survived "
                   "failure isolation");
    const auto column = [&](std::size_t block) {
        std::vector<double> values;
        values.reserve(survivors.size());
        for (std::size_t j : survivors)
            values.push_back(batch.values[block * n + j]);
        return values;
    };

    const std::vector<double> f_a = column(0);
    const std::vector<double> f_b = column(1);
    // Output variance over the pooled A/B evaluations.
    RunningStats pooled;
    for (double y : f_a)
        pooled.add(y);
    for (double y : f_b)
        pooled.add(y);
    const double variance = pooled.variance();
    result.output_mean = pooled.mean();
    result.output_variance = variance;

    if (rows != nullptr) {
        rows->f_a = f_a;
        rows->f_b = f_b;
        rows->f_ab.assign(k, std::vector<double>());
    }
    for (std::size_t i = 0; i < k; ++i) {
        std::vector<double> f_abi = column(2 + i);
        const auto [s_i, s_ti] =
            jansenIndices(f_a, f_b, f_abi, result.output_mean, variance,
                          options.clip_negative);
        result.first_order[i] = s_i;
        result.total_effect[i] = s_ti;
        if (rows != nullptr)
            rows->f_ab[i] = std::move(f_abi);
    }
    return result;
}

SobolConfidence
sobolBootstrapCi(const SobolRowData& rows, std::size_t resamples,
                 double coverage, std::uint64_t seed, bool clip_negative,
                 const ParallelConfig& parallel)
{
    SobolBootstrapOptions options;
    options.resamples = resamples;
    options.coverage = coverage;
    options.seed = seed;
    options.clip_negative = clip_negative;
    options.parallel = parallel;
    return sobolBootstrapCi(rows, options);
}

SobolConfidence
sobolBootstrapCi(const SobolRowData& rows,
                 const SobolBootstrapOptions& options)
{
    const obs::ScopedSpan span("sobol", "sobolBootstrapCi");
    static const obs::Counter resample_count("sobol.bootstrap_resamples");

    const std::size_t n = rows.f_a.size();
    const std::size_t k = rows.f_ab.size();
    const std::size_t resamples = options.resamples;
    TTMCAS_REQUIRE(n >= 2, "bootstrap needs at least two base rows");
    TTMCAS_REQUIRE(rows.f_b.size() == n,
                   "row data arity mismatch (f_b)");
    for (const auto& column : rows.f_ab) {
        TTMCAS_REQUIRE(column.size() == n,
                       "row data arity mismatch (f_ab)");
    }
    TTMCAS_REQUIRE(k >= 1, "bootstrap needs at least one input");
    TTMCAS_REQUIRE(resamples >= 10, "need at least 10 resamples");
    TTMCAS_REQUIRE(options.coverage > 0.0 && options.coverage < 1.0,
                   "coverage must be in (0, 1)");

    // Pre-draw every resample's pick indices serially so the RNG
    // stream — and therefore each replicate — is independent of how
    // the resample loop is chunked across threads.
    Rng rng(options.seed);
    std::vector<std::size_t> picks(resamples * n);
    for (std::size_t j = 0; j < picks.size(); ++j)
        picks[j] = static_cast<std::size_t>(rng.uniformInt(n));

    // One bootstrap replicate: Jansen estimators over the resampled
    // rows. Writes S_i into first_out[i] and S_Ti into total_out[i].
    const auto computeReplicate = [&](std::size_t r, double* first_out,
                                      double* total_out) {
        const std::size_t* resample_picks = picks.data() + r * n;

        // Pooled variance over the resampled A/B evaluations.
        RunningStats pooled;
        for (std::size_t j = 0; j < n; ++j) {
            pooled.add(rows.f_a[resample_picks[j]]);
            pooled.add(rows.f_b[resample_picks[j]]);
        }
        const double mean = pooled.mean();
        const double variance = pooled.variance();

        for (std::size_t i = 0; i < k; ++i) {
            double first_acc = 0.0;
            double total_acc = 0.0;
            for (std::size_t p = 0; p < n; ++p) {
                const std::size_t j = resample_picks[p];
                const double f_abi = rows.f_ab[i][j];
                first_acc +=
                    (rows.f_b[j] - mean) * (f_abi - rows.f_a[j]);
                const double delta = rows.f_a[j] - f_abi;
                total_acc += delta * delta;
            }
            double s_i = 0.0;
            double s_ti = 0.0;
            if (variance > 0.0) {
                s_i = first_acc / static_cast<double>(n) / variance;
                s_ti = total_acc / (2.0 * static_cast<double>(n)) /
                       variance;
            }
            if (options.clip_negative) {
                s_i = std::max(s_i, 0.0);
                s_ti = std::max(s_ti, 0.0);
            }
            first_out[i] = s_i;
            total_out[i] = s_ti;
        }
    };

    // One resample = one driver point; its 2k index estimates travel
    // in one slot and failed replicates drop out of the intervals.
    PointKernel<std::vector<double>> points;
    points.name = "sobolBootstrapCi";
    points.seed = options.seed;
    points.count = resamples;
    points.counter = &resample_count;
    points.width = 2 * k;
    points.point = [&](std::size_t r) {
        std::vector<double> values(2 * k);
        computeReplicate(r, values.data(), values.data() + k);
        for (double value : values)
            finiteOr(value, DiagCode::NonFiniteOutput, "sobolBootstrapCi");
        return values;
    };
    points.save = [](const std::vector<double>& values, double* slots) {
        std::copy(values.begin(), values.end(), slots);
    };
    points.restore = [&](std::size_t, const double* slots) {
        return std::vector<double>(slots, slots + 2 * k);
    };
    const std::vector<std::vector<double>> replicates =
        runPoints(options, points).survivors();
    TTMCAS_REQUIRE(replicates.size() >= 2,
                   "sobolBootstrapCi: fewer than two replicates survived "
                   "failure isolation");

    SobolConfidence confidence;
    std::vector<double> first(replicates.size());
    std::vector<double> total(replicates.size());
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t r = 0; r < replicates.size(); ++r) {
            first[r] = replicates[r][i];
            total[r] = replicates[r][k + i];
        }
        const Interval first_ci =
            Summary::of(first).percentileInterval(options.coverage);
        const Interval total_ci =
            Summary::of(total).percentileInterval(options.coverage);
        confidence.first_order.emplace_back(first_ci.lo, first_ci.hi);
        confidence.total_effect.emplace_back(total_ci.lo, total_ci.hi);
    }
    return confidence;
}

} // namespace ttmcas

