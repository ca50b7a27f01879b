#ifndef TTMCAS_BENCH_BENCH_COMMON_HH
#define TTMCAS_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Shared plumbing for the table/figure reproduction binaries.
 *
 * Every bench prints its reproduction to stdout (formatted like the
 * paper's table/figure) and mirrors the data into bench_out/<name>.csv
 * so external plotting tools can regenerate the figures.
 */

#include <iostream>
#include <string>

#include "core/reference_designs.hh"
#include "core/ttm_model.hh"
#include "report/matrix.hh"
#include "report/series.hh"
#include "report/table.hh"
#include "support/strutil.hh"
#include "tech/default_dataset.hh"

namespace ttmcas::bench {

/** Directory all bench CSV outputs land in. */
inline constexpr const char* kOutputDir = "bench_out";

/** Print a bench banner. */
void banner(const std::string& title);

/** Write CSV content under bench_out/ and announce the path. */
void emitCsv(const std::string& name, const std::string& content);

/**
 * Write a JSON object under bench_out/ and announce the path. A
 * "host" block ({"hardware_concurrency": N, "build_type": "..."}) is
 * spliced into the top-level object so numbers from different machines
 * and builds can be told apart. When the metrics registry holds any
 * data (see support/metrics.hh), a "metrics" block with the merged
 * snapshot is spliced in too, so BENCH_*.json files carry the run's
 * counters and latency histograms alongside the benchmark figures. The
 * result is re-parsed before writing, so malformed JSON fails loudly
 * instead of landing in bench_out/.
 *
 * @param name file name under bench_out/ (e.g. "BENCH_parallel.json")
 * @param json_object a complete JSON object ("{...}")
 */
void emitBenchJson(const std::string& name,
                   const std::string& json_object);

/** Thread count the benches' parallel-speedup runs ask for at most. */
inline constexpr std::size_t kSpeedupThreads = 8;

/**
 * Threads the parallel-speedup runs use: min(kSpeedupThreads,
 * hardware_concurrency), so a speedup never measures oversubscription.
 * Each bench records the count in its BENCH JSON.
 */
std::size_t speedupThreads();

/**
 * A speedupThreads()-thread speedup as a table cell ("1.23x") and as a
 * JSON value. On a one-core host there is no parallel run to compare,
 * so these return "n/a" and "null" instead.
 */
std::string speedupText(double speedup);
/** @copydoc speedupText */
std::string speedupJson(double speedup);

/** The ten process nodes of the paper's figures, coarsest first. */
const std::vector<std::string>& paperNodes();

/** TtmModel options for the A11-style studies (100 engineers). */
TtmModel::Options a11ModelOptions();

/** TtmModel options for the Zen 2 study (150 engineers, Table 4). */
TtmModel::Options zen2ModelOptions();

} // namespace ttmcas::bench

#endif // TTMCAS_BENCH_BENCH_COMMON_HH
