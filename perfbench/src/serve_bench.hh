#ifndef PERFBENCH_SERVE_BENCH_HH
#define PERFBENCH_SERVE_BENCH_HH

/**
 * @file
 * The serve workloads: a closed loop of TCP-loopback clients against
 * an in-process EvalServer, then a serial replay of the same request
 * lines through the request stages.
 */

#include <cstdint>
#include <string>

#include "generator.hh"
#include "report.hh"
#include "spans.hh"

namespace perfbench {

struct RunOptions
{
    Workload workload = Workload::ServeColdMix;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Scratch directory for cache files and the trace. */
    std::string work_dir;
};

/** Run serve_cold_mix or serve_hot_small; fills @p report and @p stamp. */
void runServeWorkload(const RunOptions& options, Report& report,
                      SpanRecorder& spans, EnvStamp& stamp);

/**
 * Report the serve layers' per-layer metrics as 0 on a workload that
 * runs no server (cache_study), so every traced run prints every name.
 */
void addUnexercisedServeMetrics(Report& report);

} // namespace perfbench

#endif // PERFBENCH_SERVE_BENCH_HH
