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
    std::string workload;
    bool instruction_stream = false;
    std::vector<std::uint64_t> sizes_bytes;
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
    std::uint32_t line_bytes = 64;
    std::uint32_t associativity = 4;
    std::uint64_t seed = 0x5bec;

    /** The paper's 1KB..1MB power-of-two sweep. */
    static std::vector<std::uint64_t> paperSizes();
};

/**
 * Extract one stream's miss curve (LRU at every capacity).
 *
 * Generates the stream once and simulates all capacities in the same
 * pass; the rates are bitwise-equal to running a fresh LRU Cache per
 * capacity over the regenerated stream.
 */
MissCurve measureMissCurve(const Workload& workload, bool instruction_stream,
                           const MissCurveOptions& options);

/** Suite-average miss curves (instruction, data) over @p suite. */
std::pair<MissCurve, MissCurve>
averageMissCurves(const std::vector<Workload>& suite,
                  const MissCurveOptions& options);

} // namespace ttmcas

#endif // TTMCAS_SIM_MISS_CURVES_HH
