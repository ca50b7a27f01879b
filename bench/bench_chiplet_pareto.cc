/**
 * @file
 * Chiplet-economics explorer microbench: wall-clock per candidate of
 * the joint TTM/CAS/cost Pareto sweep (opt/chiplet_explorer.hh) at
 * 24 / 96 / 384 candidates, serial vs 8 threads, on the compiled
 * batch path vs the scalar oracle. Verifies that the serial and
 * 8-thread ChipletParetoResults — and the batch and scalar paths —
 * agree bitwise at every size while timing them, so the bench doubles
 * as a determinism check and exits non-zero on any mismatch. Writes
 * bench_out/BENCH_chiplet_pareto.json for the CI artifact trail.
 */

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/reference_designs.hh"
#include "opt/chiplet_explorer.hh"
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

/**
 * A spec with @p candidates grid points: the partition axis stretches
 * while nodes (2) x redundancy (3) x splits (2) = 12 stays fixed.
 */
ChipletSweepSpec
specOfSize(std::size_t candidates)
{
    ChipletSweepSpec spec;
    spec.nodes = {"7nm", "12nm"};
    spec.redundancy = {0, 1, 2};
    spec.split_fractions = {0.6, 1.0};
    spec.secondary_node = "12nm";
    spec.partitions.clear();
    for (std::size_t p = 1; p <= candidates / 12; ++p)
        spec.partitions.push_back(static_cast<int>(p));
    return spec;
}

ChipletExplorerOptions
explorerOptions(std::size_t threads, EvalPath path)
{
    ChipletExplorerOptions options;
    options.seed = 20230806;
    options.parallel = threads <= 1 ? ParallelConfig::serial()
                                    : ParallelConfig{threads, 2};
    options.eval_path = path;
    return options;
}

struct SizeRow
{
    std::size_t candidates = 0;
    double serial_us_per_candidate = 0.0;
    double threads8_us_per_candidate = 0.0;
    double scalar_us_per_candidate = 0.0;
    bool bitwise_identical = false;

    double speedup() const
    {
        return serial_us_per_candidate / threads8_us_per_candidate;
    }
};

} // namespace

int
main()
{
    bench::banner("Chiplet Pareto explorer: cost per candidate");

    const TechnologyDb db = defaultTechnologyDb();
    const ChipletExplorer explorer(db, bench::a11ModelOptions());
    const ChipDesign a11 = designs::a11("7nm");
    const double n_chips = 10e6;
    const MarketConditions market;
    const std::vector<std::size_t> sizes{24, 96, 384};

    std::vector<SizeRow> rows;
    std::cout << "  cands    serial us/cand    8-thread us/cand"
                 "    scalar us/cand    speedup\n";
    for (const std::size_t n : sizes) {
        const ChipletSweepSpec spec = specOfSize(n);
        SizeRow row;
        row.candidates = spec.candidateCount();

        // Warm-up runs also provide the identity checks: serial vs
        // 8 threads, and compiled batch vs the scalar oracle.
        const ChipletParetoResult serial = explorer.run(
            a11, n_chips, market, spec,
            explorerOptions(1, EvalPath::kBatch));
        const ChipletParetoResult parallel = explorer.run(
            a11, n_chips, market, spec,
            explorerOptions(8, EvalPath::kBatch));
        const ChipletParetoResult scalar = explorer.run(
            a11, n_chips, market, spec,
            explorerOptions(1, EvalPath::kScalar));
        row.bitwise_identical = serial == parallel && serial == scalar;

        const double count = static_cast<double>(row.candidates);
        row.serial_us_per_candidate = timeMs([&] {
            explorer.run(a11, n_chips, market, spec,
                         explorerOptions(1, EvalPath::kBatch));
        }) * 1e3 / count;
        row.threads8_us_per_candidate = timeMs([&] {
            explorer.run(a11, n_chips, market, spec,
                         explorerOptions(8, EvalPath::kBatch));
        }) * 1e3 / count;
        row.scalar_us_per_candidate = timeMs([&] {
            explorer.run(a11, n_chips, market, spec,
                         explorerOptions(1, EvalPath::kScalar));
        }) * 1e3 / count;
        rows.push_back(row);

        std::printf("%7zu %17.1f %19.1f %17.1f %10s%s\n",
                    row.candidates, row.serial_us_per_candidate,
                    row.threads8_us_per_candidate,
                    row.scalar_us_per_candidate, bench::speedupText(row.speedup()).c_str(),
                    row.bitwise_identical ? "" : "  [MISMATCH]");
    }

    std::ostringstream json;
    json << "{\n  \"design\": \"a11-7nm\",\n"
         << "  \"kernel\": \"ChipletExplorer::run\",\n  \"sizes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SizeRow& row = rows[i];
        json << "    {\"candidates\": " << row.candidates
             << ", \"serial_us_per_candidate\": "
             << row.serial_us_per_candidate
             << ", \"threads8_us_per_candidate\": "
             << row.threads8_us_per_candidate
             << ", \"scalar_us_per_candidate\": "
             << row.scalar_us_per_candidate
             << ", \"speedup\": " << bench::speedupJson(row.speedup())
             << ", \"bitwise_identical\": "
             << (row.bitwise_identical ? "true" : "false") << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}";
    bench::emitBenchJson("BENCH_chiplet_pareto.json", json.str());

    // Fail loudly (a CI-visible exit code) if determinism broke.
    for (const SizeRow& row : rows) {
        if (!row.bitwise_identical) {
            std::cerr << "determinism mismatch at candidates="
                      << row.candidates << "\n";
            return 1;
        }
    }
    return 0;
}
