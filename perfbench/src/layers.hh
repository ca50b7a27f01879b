#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

/**
 * @file
 * Per-layer probes of the traced run: fixed-size calls into core,
 * stats, opt and sim, each under a span, reported per unit of work.
 * They do not depend on the workload's traffic, so every traced run
 * reports them.
 */

#include <cstdint>

#include "report.hh"
#include "spans.hh"

namespace perfbench {

void measureLayers(std::uint64_t seed, Report& report, SpanRecorder& spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
