#ifndef PERFBENCH_CACHE_STUDY_HH
#define PERFBENCH_CACHE_STUDY_HH

/**
 * @file
 * The cache_study workload: the Section 6.1 (Figs. 4-6) pipeline run
 * offline on one thread — suite-average miss curves, then the full
 * (I$, D$) CacheSweep — with every pass checked against the digest
 * recorded for the study variant the seed selects.
 */

#include <cstdint>
#include <string>

#include "check.hh"
#include "report.hh"
#include "serve_bench.hh"
#include "spans.hh"

namespace perfbench {

/** Seeds map onto this many recorded study variants (seed mod 8). */
constexpr std::uint64_t kStudyVariants = 8;

/** Curve options of the paper benches, with the variant's trace seed. */
ttmcas::MissCurveOptions studyCurveOptions(std::uint64_t variant);

/** One study pass; spans around each layer when tracing. */
StudyOutput runStudyPass(std::uint64_t variant, SpanRecorder& spans,
                         std::uint64_t parent = 0);

void runCacheStudy(const RunOptions& options, const std::string& digests,
                   Report& report, SpanRecorder& spans);

} // namespace perfbench

#endif // PERFBENCH_CACHE_STUDY_HH
