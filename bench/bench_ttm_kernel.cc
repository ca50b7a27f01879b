/**
 * @file
 * Kernel microbench: ns/sample of the Monte-Carlo TTM kernel through
 * the legacy scalar path (EvalPath::kScalar — per-sample design copy,
 * technology rescale, and TtmModel rebuild) versus the compiled SoA
 * batch path (EvalPath::kBatch — precomputed node constants, Eq. 1-7
 * over contiguous lanes, zero per-sample allocation), at batch sizes
 * 1 / 64 / 4096 / 65536. Three more rows time the kernels that batch
 * through the point driver's chunk fill: the Monte-Carlo CAS kernel
 * sampleCas (casBatch), the Saltelli rows of ttmSensitivity (gathered
 * into ttmBatch columns) and CasModel::capacitySweep (the compiled
 * sweep kernel). Verifies the two paths agree bitwise on every row
 * while timing them, exits 1 on a mismatch, and writes
 * bench_out/BENCH_ttm_kernel.json (with the ttm.batch.* metrics
 * block) for the CI artifact trail.
 * docs/PERFORMANCE.md explains how to read the output.
 */

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hh"
#include "core/cas.hh"
#include "core/reference_designs.hh"
#include "core/uncertainty.hh"
#include "support/metrics.hh"
#include "tech/default_dataset.hh"

namespace {

using namespace ttmcas;

/** Best-of-3 wall-clock milliseconds of @p kernel. */
template <typename Kernel>
double
timeMs(Kernel&& kernel)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        kernel();
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        if (rep == 0 || ms < best)
            best = ms;
    }
    return best;
}

UncertaintyAnalysis::Options
mcOptions(std::size_t samples, EvalPath path)
{
    UncertaintyAnalysis::Options options;
    options.samples = samples;
    options.seed = 20230806;
    options.parallel.threads = 1; // single-core ns/sample, no pool noise
    options.eval_path = path;
    return options;
}

struct SizeRow
{
    std::size_t samples = 0;
    double scalar_ns_per_sample = 0.0;
    double batch_ns_per_sample = 0.0;
    bool bitwise_identical = false;

    double speedup() const
    {
        return scalar_ns_per_sample / batch_ns_per_sample;
    }
    static double perSecond(double ns_per_sample)
    {
        return 1e9 / ns_per_sample;
    }
};

/** One scalar-vs-batch row of a point-driver kernel. */
struct KernelRow
{
    const char* kernel = "";
    std::size_t points = 0;
    double scalar_ns_per_point = 0.0;
    double batch_ns_per_point = 0.0;
    bool bitwise_identical = false;
};

/** Time @p run on both paths; @p run(path) returns a comparable result. */
template <typename Run>
KernelRow
kernelRow(const char* kernel, std::size_t points, Run&& run)
{
    KernelRow row;
    row.kernel = kernel;
    row.points = points;
    row.bitwise_identical =
        run(EvalPath::kScalar) == run(EvalPath::kBatch);
    const double scalar_ms = timeMs([&] { run(EvalPath::kScalar); });
    const double batch_ms = timeMs([&] { run(EvalPath::kBatch); });
    row.scalar_ns_per_point = scalar_ms * 1e6 / static_cast<double>(points);
    row.batch_ns_per_point = batch_ms * 1e6 / static_cast<double>(points);
    std::printf("%-15s %7zu %16.1f %16.1f %9.2fx%s\n", kernel, points,
                row.scalar_ns_per_point, row.batch_ns_per_point,
                row.scalar_ns_per_point / row.batch_ns_per_point,
                row.bitwise_identical ? "" : "  [MISMATCH]");
    return row;
}

/** A Sobol result as a flat vector (== is then bitwise per value). */
std::vector<double>
flatten(const SobolResult& result)
{
    std::vector<double> values{result.output_mean, result.output_variance};
    values.insert(values.end(), result.first_order.begin(),
                  result.first_order.end());
    values.insert(values.end(), result.total_effect.begin(),
                  result.total_effect.end());
    return values;
}

/** A sweep as a flat (TTM, CAS) vector. */
std::vector<double>
flatten(const std::vector<CasPoint>& sweep)
{
    std::vector<double> values;
    for (const CasPoint& point : sweep) {
        values.push_back(point.ttm.value());
        values.push_back(point.cas);
    }
    return values;
}

} // namespace

int
main()
{
    bench::banner("TTM kernel: scalar vs compiled SoA batch path");

    // Metrics on, so the emitted JSON carries the ttm.batch.size /
    // ttm.batch.ns_per_sample histograms next to the timings.
    obs::setMetricsEnabled(true);

    const UncertaintyAnalysis analysis(defaultTechnologyDb(),
                                       bench::a11ModelOptions());
    const ChipDesign a11 = designs::a11("7nm");
    const double n_chips = 10e6;
    const std::vector<std::size_t> sizes{1, 64, 4096, 65536};

    std::vector<SizeRow> rows;
    std::cout << "      N    scalar ns/sample    batch ns/sample"
                 "    speedup    batch samples/s\n";
    for (const std::size_t n : sizes) {
        SizeRow row;
        row.samples = n;
        const auto scalar_options = mcOptions(n, EvalPath::kScalar);
        const auto batch_options = mcOptions(n, EvalPath::kBatch);
        // Warm-up draw also provides the identity check.
        const auto scalar =
            analysis.sampleTtm(a11, n_chips, {}, scalar_options);
        const auto batch =
            analysis.sampleTtm(a11, n_chips, {}, batch_options);
        row.bitwise_identical = scalar == batch;

        const double scalar_ms = timeMs([&] {
            analysis.sampleTtm(a11, n_chips, {}, scalar_options);
        });
        const double batch_ms = timeMs([&] {
            analysis.sampleTtm(a11, n_chips, {}, batch_options);
        });
        row.scalar_ns_per_sample =
            scalar_ms * 1e6 / static_cast<double>(n);
        row.batch_ns_per_sample =
            batch_ms * 1e6 / static_cast<double>(n);
        rows.push_back(row);

        std::printf("%7zu %19.1f %18.1f %9.2fx %18.0f%s\n", n,
                    row.scalar_ns_per_sample, row.batch_ns_per_sample,
                    row.speedup(),
                    SizeRow::perSecond(row.batch_ns_per_sample),
                    row.bitwise_identical ? "" : "  [MISMATCH]");
    }

    // Point-driver kernels with a chunk fill: Monte-Carlo CAS samples,
    // Sobol's (k + 2) * N Saltelli rows and the capacity sweep's grid.
    std::cout << "\nkernel           points   scalar ns/point"
                 "   batch ns/point    speedup\n";
    constexpr std::size_t kCasSamples = 1024;
    constexpr std::size_t kSobolBase = 256;
    constexpr std::size_t kGrid = 512;
    std::vector<double> fractions;
    for (std::size_t i = 0; i < kGrid; ++i)
        fractions.push_back(0.2 + 0.8 * static_cast<double>(i + 1) / kGrid);
    const std::vector<KernelRow> kernel_rows{
        kernelRow("sampleCas", kCasSamples,
                  [&](EvalPath path) {
                      return analysis.sampleCas(a11, n_chips, {},
                                                mcOptions(kCasSamples, path));
                  }),
        kernelRow("ttmSensitivity", (6 + 2) * kSobolBase,
                  [&](EvalPath path) {
                      return flatten(analysis.ttmSensitivity(
                          a11, n_chips, {}, mcOptions(kSobolBase, path)));
                  }),
        kernelRow("capacitySweep", kGrid, [&](EvalPath path) {
            CasModel::Options options;
            options.eval_path = path;
            const CasModel cas(
                TtmModel(defaultTechnologyDb(), bench::a11ModelOptions()),
                options);
            return flatten(cas.capacitySweep(a11, n_chips, fractions));
        }),
    };

    std::ostringstream json;
    json << "{\n  \"design\": \"a11-7nm\",\n  \"kernel\": \"sampleTtm\""
         << ",\n  \"threads\": 1,\n  \"sizes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SizeRow& row = rows[i];
        json << "    {\"samples\": " << row.samples
             << ", \"scalar_ns_per_sample\": " << row.scalar_ns_per_sample
             << ", \"batch_ns_per_sample\": " << row.batch_ns_per_sample
             << ", \"speedup\": " << row.speedup()
             << ", \"batch_samples_per_sec\": "
             << SizeRow::perSecond(row.batch_ns_per_sample)
             << ", \"bitwise_identical\": "
             << (row.bitwise_identical ? "true" : "false") << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
        const KernelRow& row = kernel_rows[i];
        json << "    {\"kernel\": \"" << row.kernel
             << "\", \"points\": " << row.points
             << ", \"scalar_ns_per_point\": " << row.scalar_ns_per_point
             << ", \"batch_ns_per_point\": " << row.batch_ns_per_point
             << ", \"bitwise_identical\": "
             << (row.bitwise_identical ? "true" : "false") << "}"
             << (i + 1 < kernel_rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}";
    bench::emitBenchJson("BENCH_ttm_kernel.json", json.str());
    obs::setMetricsEnabled(false);

    // Fail loudly (a CI-visible exit code) if identity broke.
    for (const SizeRow& row : rows) {
        if (!row.bitwise_identical) {
            std::cerr << "batch/scalar mismatch at N=" << row.samples
                      << "\n";
            return 1;
        }
    }
    for (const KernelRow& row : kernel_rows) {
        if (!row.bitwise_identical) {
            std::cerr << "batch/scalar mismatch in " << row.kernel << "\n";
            return 1;
        }
    }
    return 0;
}
