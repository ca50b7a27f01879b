#ifndef TTMCAS_SIM_CACHE_HH
#define TTMCAS_SIM_CACHE_HH

/**
 * @file
 * Set-associative cache simulator.
 *
 * A straightforward tag-array model: no data storage, no timing — it
 * answers hit/miss per access and accumulates statistics, which is all
 * the miss-curve extraction needs. Replacement policies: true LRU,
 * FIFO, random, and tree-PLRU (power-of-two associativity only).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "stats/rng.hh"

namespace ttmcas {

/** Replacement policy selector. */
enum class ReplacementPolicy
{
    Lru,
    Fifo,
    Random,
    TreePlru
};

/** Name for reports ("lru", "fifo", ...). */
std::string replacementPolicyName(ReplacementPolicy policy);

/** Static cache geometry. */
struct CacheConfig
{
    std::uint64_t size_bytes = 16 * 1024;
    std::uint32_t line_bytes = 64;
    std::uint32_t associativity = 4;
    ReplacementPolicy policy = ReplacementPolicy::Lru;
    /**
     * Next-line prefetch: on a demand miss, also install line+1
     * (tagged-prefetch-free simplification). Prefetch fills do not
     * count as accesses; a later demand hit on the prefetched line
     * counts as a hit.
     */
    bool next_line_prefetch = false;

    std::uint64_t numSets() const;

    /** Throws ModelError unless geometry is power-of-two consistent. */
    void validate() const;
};

/** Hit/miss counters. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;

    std::uint64_t misses() const { return accesses - hits; }
    double missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses()) /
                         static_cast<double>(accesses);
    }
    double hitRate() const { return 1.0 - missRate(); }
};

/** The simulator. */
class Cache
{
  public:
    explicit Cache(CacheConfig config, std::uint64_t seed = 0xcac4e);

    const CacheConfig& config() const { return _config; }
    const CacheStats& stats() const { return _stats; }

    /**
     * Simulate one access.
     * @return true on hit
     */
    bool access(std::uint64_t address);

    /** Run a whole trace; returns the miss rate over it. */
    double run(const std::vector<std::uint64_t>& addresses);

    /**
     * Invalidate all lines, zero statistics and reseed the replacement
     * RNG, so a reset cache replays exactly like a freshly built one.
     */
    void reset();

    /** True when @p address is currently cached (no state change). */
    bool contains(std::uint64_t address) const;

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        bool valid = false;
        std::uint64_t order = 0; ///< LRU timestamp / FIFO insert tick
    };

    std::uint64_t setIndex(std::uint64_t address) const;
    std::uint64_t tagOf(std::uint64_t address) const;
    std::uint32_t victimWay(std::uint64_t set);
    void touch(std::uint64_t set, std::uint32_t way, bool is_fill);
    /** Fill @p address's line without counting an access. */
    void install(std::uint64_t address);

    CacheConfig _config;
    std::uint64_t _seed;
    // Geometry is power-of-two (validated), so set and tag are bit fields.
    std::uint64_t _set_mask = 0;
    int _line_shift = 0;
    int _tag_shift = 0;
    CacheStats _stats;
    std::vector<Way> _ways;       // sets x associativity
    std::vector<std::uint32_t> _plru; // one tree per set (bit-packed)
    std::uint64_t _tick = 0;
    Rng _rng;
};

} // namespace ttmcas

#endif // TTMCAS_SIM_CACHE_HH
