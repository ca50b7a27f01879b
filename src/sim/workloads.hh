#ifndef TTMCAS_SIM_WORKLOADS_HH
#define TTMCAS_SIM_WORKLOADS_HH

/**
 * @file
 * The synthetic benchmark suite standing in for SPEC CPU2000.
 *
 * Each workload defines an instruction-fetch stream and a data stream
 * (built from the trace generators) plus the dynamic instruction mix
 * the IPC model needs. The suite spans the behaviors that drive real
 * cache studies: tight loops (small code, hot data), pointer-chasing
 * integer code (Zipf data), streaming floating-point kernels, and a
 * large-code branchy workload.
 */

#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hh"

namespace ttmcas {

/**
 * One synthetic benchmark. Copying a Workload shares its generators
 * (they are held by shared_ptr), and measuring a stream resets and
 * advances its generator. averageMissCurves measures distinct stream
 * objects concurrently, so a generator nested inside two distinct
 * streams (a RunTrace or MixedTrace child) must not be shared between
 * them; a top-level stream object that repeats is measured once.
 */
struct Workload
{
    std::string name;
    /** Fraction of instructions that reference data memory. */
    double memory_ref_fraction = 0.3;
    /** Builds a fresh instruction-address generator. */
    std::shared_ptr<TraceGenerator> instruction_stream;
    /** Builds a fresh data-address generator. */
    std::shared_ptr<TraceGenerator> data_stream;
};

/**
 * The default eight-workload suite (deterministic construction). Every
 * call builds fresh generators, shared by no other stream.
 * Names: tightloop, pointer, stream, stencil, branchy, dbscan,
 * matmul, mixedint.
 */
std::vector<Workload> defaultWorkloadSuite();

/** Look a workload up by name; throws ModelError when missing. */
const Workload& findWorkload(const std::vector<Workload>& suite,
                             const std::string& name);

} // namespace ttmcas

#endif // TTMCAS_SIM_WORKLOADS_HH
