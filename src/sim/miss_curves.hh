#ifndef TTMCAS_SIM_MISS_CURVES_HH
#define TTMCAS_SIM_MISS_CURVES_HH

/**
 * @file
 * Miss-rate-versus-capacity curve extraction.
 *
 * Runs a workload's instruction and data streams through an LRU cache
 * of every candidate capacity (the paper sweeps 1KB..1MB in powers of
 * two) and records the steady-state miss rate — the substitute for the
 * Cantin & Hill SPEC2000 tables the paper used.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/workloads.hh"

namespace ttmcas {

/** Miss rate as a function of capacity for one (workload, stream). */
struct MissCurve
{
    /** Workload name ("suite-average" for averageMissCurves). */
    std::string workload;
    /** True for the instruction stream, false for the data stream. */
    bool instruction_stream = false;
    /** Swept capacities, in the order the options listed them. */
    std::vector<std::uint64_t> sizes_bytes;
    /** Measured miss rate at each of sizes_bytes, in [0, 1]. */
    std::vector<double> miss_rates;

    /** Miss rate at @p size_bytes (must be one of the swept sizes). */
    double at(std::uint64_t size_bytes) const;
};

/** Sweep configuration. */
struct MissCurveOptions
{
    /** Capacities to sweep (default: 1KB..1MB, powers of two). */
    std::vector<std::uint64_t> sizes_bytes;
    /** Accesses used to warm the cache before measuring. */
    std::size_t warmup_accesses = 200'000;
    /** Accesses measured after warm-up. */
    std::size_t measured_accesses = 800'000;
    /** Cache line size in bytes (a power of two). */
    std::uint32_t line_bytes = 64;
    /** Ways per set, the same at every capacity. */
    std::uint32_t associativity = 4;
    /** Seed of the Rng that drives each stream's generator. */
    std::uint64_t seed = 0x5bec;

    /** The paper's 1KB..1MB power-of-two sweep. */
    static std::vector<std::uint64_t> paperSizes();
};

/**
 * Extract one stream's miss curve (LRU at every capacity).
 *
 * Generates the stream once and simulates all capacities in the same
 * pass; the rates are bitwise-equal to running a fresh LRU Cache per
 * capacity over the regenerated stream. Resets and advances the
 * stream's generator, so two concurrent calls must not share one.
 *
 * @param workload the workload whose stream is measured
 * @param instruction_stream true for the instruction stream, false
 *        for the data stream
 * @param options capacities, window, geometry and seed of the sweep
 * @return the stream's miss rate at every capacity
 */
MissCurve measureMissCurve(const Workload& workload, bool instruction_stream,
                           const MissCurveOptions& options);

/**
 * Suite-average miss curves (instruction, data) over @p suite.
 *
 * The suite's 2N streams are measured concurrently on the process-wide
 * pool (support/threadpool.hh), one curve per claim, and summed
 * serially in suite order, so every rate is bitwise what a serial
 * loop of measureMissCurve calls gives, for any core count. A stream
 * whose generator object also appears earlier in the suite (e.g. a
 * suite holding one Workload twice) reuses that earlier curve, which
 * is what measuring it again gives. Generators nested inside two
 * distinct stream objects (a RunTrace or MixedTrace child) must not be
 * shared, because those streams are measured concurrently;
 * defaultWorkloadSuite() builds every generator fresh.
 *
 * @param suite the workloads to average (not empty)
 * @param options capacities, window, geometry and seed of the sweep
 * @return the (instruction, data) suite-average curves
 */
std::pair<MissCurve, MissCurve>
averageMissCurves(const std::vector<Workload>& suite,
                  const MissCurveOptions& options);

} // namespace ttmcas

#endif // TTMCAS_SIM_MISS_CURVES_HH
