#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

/**
 * @file
 * Output checks. A failed check fails the run and counts in
 * "failed": a serve reply that is not a complete "ok" result with the
 * cache state the generator expects, a replayed evaluation whose
 * payload differs from the served one, or cache-study curves and sweep
 * rows that differ from the digest recorded for the study variant.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "generator.hh"
#include "opt/cache_optimizer.hh"
#include "sim/miss_curves.hh"

namespace perfbench {

struct ReplyCheck
{
    bool ok = false;
    /** Why the reply was rejected (empty when ok). */
    std::string why;
    /** The reply's failures.points. */
    std::uint64_t points = 0;
    /** The reply's cache state: "miss", "hit", "coalesced", ... */
    std::string cache;
};

/**
 * Check one serve reply against the request it answers: the reply
 * parses, echoes the id and kind, has status "ok", a cache state the
 * generator allows ("miss" for fresh keys; hits only on hot-set keys),
 * every requested sample or point completed and no point failed.
 */
ReplyCheck checkReply(const std::string& reply,
                      const GeneratedRequest& request);

/** The raw "result" payload embedded in a result reply ("" if none). */
std::string resultPayload(const std::string& reply);

/** The Section 6.1 study's output: both curves and every sweep row. */
struct StudyOutput
{
    ttmcas::MissCurve instruction;
    ttmcas::MissCurve data;
    std::vector<ttmcas::CacheDesignPoint> rows;
};

/**
 * FNV-1a 64, as 16 hex digits, of both curves and every sweep row
 * rendered one per line at %.17g.
 */
std::string studyDigest(const StudyOutput& output);

/** Recorded digests: variant -> digest, read from "variant digest" lines. */
std::map<std::uint64_t, std::string> loadDigests(const std::string& path);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
