#ifndef PERFBENCH_GENERATOR_HH
#define PERFBENCH_GENERATOR_HH

/**
 * @file
 * Workload inputs, generated from (workload, seed) alone.
 *
 * Request i of a stream is a pure function of (workload, seed, i): the
 * same seed yields byte-identical request lines, and the program under
 * test sees only those lines. Every draw comes from the generator's own
 * splitmix64 stream, never the library's RNG; the designs are the
 * library's reference designs, rendered with its JSON writer.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload
{
    ServeColdMix,
    ServeHotSmall,
    CacheStudy,
};

const char* workloadName(Workload workload);
bool parseWorkload(const std::string& name, Workload& workload);

/** splitmix64 of (seed, domain, index): the generator's only source. */
std::uint64_t mixBits(std::uint64_t seed, std::uint64_t domain,
                      std::uint64_t index);

/** What the reply to one generated request must show. */
struct GeneratedRequest
{
    std::uint64_t index = 0;
    /** The echoed request id: "r<index>", or "h<rank>" in the hot set. */
    std::string id;
    std::string line;
    /** Wire kind name, e.g. "mc_ttm". */
    std::string kind;
    /** samples (mc/sobol), paths (ensemble) or grid points (sweep). */
    std::uint64_t size = 0;
    /** True for hot-set repeats: "hit" expected, "miss" tolerated. */
    bool hot = false;
};

class RequestGenerator
{
  public:
    /** @p workload must be one of the serve workloads. */
    RequestGenerator(Workload workload, std::uint64_t seed);

    /** Request @p index of the measured stream. */
    GeneratedRequest request(std::uint64_t index) const;

    /** The hot set loaded during set-up (serve_hot_small only). */
    const std::vector<GeneratedRequest>& hotSet() const { return _hot; }

  private:
    GeneratedRequest coldMix(std::uint64_t index) const;
    GeneratedRequest freshSmall(std::uint64_t index) const;
    GeneratedRequest hotRequest(std::uint64_t rank) const;

    Workload _workload;
    std::uint64_t _seed;
    /** Wire JSON of each design the streams draw from. */
    std::vector<std::string> _designs;
    std::vector<GeneratedRequest> _hot;
    /** Zipf(1.0) cumulative weights over the hot-set ranks. */
    std::vector<double> _zipf_cdf;
};

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_HH
