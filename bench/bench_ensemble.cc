/**
 * @file
 * Ensemble microbench: wall-clock per scenario path of the disruption
 * ensemble (core/ensemble.hh) at N = 16 / 64 / 256 paths, serial vs
 * bench::speedupThreads() threads (8, or the core count when lower),
 * split into the sampling-only cost (Markov chain + Hawkes cascade +
 * phase composition) and the full evaluate cost (timeline TTM + CAS
 * per path + per-regime reduction). Verifies the serial and parallel
 * EnsembleResults agree bitwise at every size while timing them — the
 * bench doubles as a determinism check and exits non-zero on any
 * mismatch. Writes bench_out/BENCH_ensemble.json (thread count
 * included) for the CI artifact trail.
 */

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/ensemble.hh"
#include "core/reference_designs.hh"
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

EnsembleOptions
ensembleOptions(std::size_t paths, std::size_t threads)
{
    EnsembleOptions options;
    options.paths = paths;
    options.seed = 20230806;
    options.parallel =
        threads <= 1 ? ParallelConfig::serial() : ParallelConfig{threads, 4};
    return options;
}

struct SizeRow
{
    std::size_t paths = 0;
    double sample_us_per_path = 0.0;
    double serial_us_per_path = 0.0;
    double parallel_us_per_path = 0.0;
    bool bitwise_identical = false;

    double speedup() const
    {
        return serial_us_per_path / parallel_us_per_path;
    }
};

} // namespace

int
main()
{
    bench::banner("Disruption ensemble: sampling and evaluation cost");

    const TechnologyDb db = defaultTechnologyDb();
    const EnsembleRunner runner(db, bench::a11ModelOptions());
    const ChipDesign a11 = designs::a11("7nm");
    const double n_chips = 10e6;
    const EnsembleSpec spec = EnsembleSpec::defaultsFor({"7nm"});
    const std::vector<std::size_t> sizes{16, 64, 256};
    const std::size_t threads = bench::speedupThreads();

    std::vector<SizeRow> rows;
    std::printf("  paths    sample us/path    serial us/path"
                "    %zu-thread us/path    speedup\n",
                threads);
    for (const std::size_t n : sizes) {
        SizeRow row;
        row.paths = n;

        // Warm-up runs also provide the identity check.
        const EnsembleResult serial = runner.run(
            a11, n_chips, {}, spec, ensembleOptions(n, 1));
        const EnsembleResult parallel = runner.run(
            a11, n_chips, {}, spec, ensembleOptions(n, threads));
        row.bitwise_identical = serial == parallel;

        const double sample_ms = timeMs([&] {
            for (std::size_t k = 0; k < n; ++k)
                sampleScenarioPath(spec, 20230806, k);
        });
        const double serial_ms = timeMs([&] {
            runner.run(a11, n_chips, {}, spec, ensembleOptions(n, 1));
        });
        const double parallel_ms = timeMs([&] {
            runner.run(a11, n_chips, {}, spec, ensembleOptions(n, threads));
        });
        row.sample_us_per_path =
            sample_ms * 1e3 / static_cast<double>(n);
        row.serial_us_per_path =
            serial_ms * 1e3 / static_cast<double>(n);
        row.parallel_us_per_path =
            parallel_ms * 1e3 / static_cast<double>(n);
        rows.push_back(row);

        std::printf("%7zu %17.1f %17.1f %19.1f %10s%s\n", n,
                    row.sample_us_per_path, row.serial_us_per_path,
                    row.parallel_us_per_path, bench::speedupText(row.speedup()).c_str(),
                    row.bitwise_identical ? "" : "  [MISMATCH]");
    }

    std::ostringstream json;
    json << "{\n  \"design\": \"a11-7nm\",\n"
         << "  \"kernel\": \"EnsembleRunner::run\",\n"
         << "  \"threads\": " << threads << ",\n  \"sizes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SizeRow& row = rows[i];
        json << "    {\"paths\": " << row.paths
             << ", \"sample_us_per_path\": " << row.sample_us_per_path
             << ", \"serial_us_per_path\": " << row.serial_us_per_path
             << ", \"parallel_us_per_path\": " << row.parallel_us_per_path
             << ", \"speedup\": " << bench::speedupJson(row.speedup())
             << ", \"bitwise_identical\": "
             << (row.bitwise_identical ? "true" : "false") << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}";
    bench::emitBenchJson("BENCH_ensemble.json", json.str());

    // Fail loudly (a CI-visible exit code) if determinism broke.
    for (const SizeRow& row : rows) {
        if (!row.bitwise_identical) {
            std::cerr << "serial/parallel mismatch at paths=" << row.paths
                      << "\n";
            return 1;
        }
    }
    return 0;
}
