#include "sim/cache.hh"

#include <bit>

#include "support/error.hh"

namespace ttmcas {

std::string
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru:
        return "lru";
      case ReplacementPolicy::Fifo:
        return "fifo";
      case ReplacementPolicy::Random:
        return "random";
      case ReplacementPolicy::TreePlru:
        return "tree-plru";
    }
    TTMCAS_INVARIANT(false, "unhandled ReplacementPolicy");
}

std::uint64_t
CacheConfig::numSets() const
{
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) *
                         associativity);
}

void
CacheConfig::validate() const
{
    TTMCAS_REQUIRE(line_bytes > 0 && std::has_single_bit(line_bytes),
                   "cache line size must be a power of two");
    TTMCAS_REQUIRE(associativity > 0, "associativity must be positive");
    TTMCAS_REQUIRE(size_bytes >=
                       static_cast<std::uint64_t>(line_bytes) *
                           associativity,
                   "cache must hold at least one set");
    TTMCAS_REQUIRE(size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                                 associativity) ==
                       0,
                   "cache size must be a whole number of sets");
    TTMCAS_REQUIRE(std::has_single_bit(numSets()),
                   "number of sets must be a power of two");
    if (policy == ReplacementPolicy::TreePlru) {
        TTMCAS_REQUIRE(std::has_single_bit(associativity),
                       "tree-PLRU needs power-of-two associativity");
    }
}

Cache::Cache(CacheConfig config, std::uint64_t seed)
    : _config(config), _seed(seed), _rng(seed)
{
    _config.validate();
    const std::uint64_t sets = _config.numSets();
    _set_mask = sets - 1;
    _line_shift = std::countr_zero(_config.line_bytes);
    _tag_shift = _line_shift + std::countr_zero(sets);
    _ways.resize(sets * _config.associativity);
    _plru.resize(sets, 0);
}

std::uint64_t
Cache::setIndex(std::uint64_t address) const
{
    return (address >> _line_shift) & _set_mask;
}

std::uint64_t
Cache::tagOf(std::uint64_t address) const
{
    return address >> _tag_shift;
}

std::uint32_t
Cache::victimWay(std::uint64_t set)
{
    const std::size_t base = set * _config.associativity;

    // Invalid ways first, in every policy.
    for (std::uint32_t way = 0; way < _config.associativity; ++way) {
        if (!_ways[base + way].valid)
            return way;
    }

    switch (_config.policy) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        std::uint32_t victim = 0;
        for (std::uint32_t way = 1; way < _config.associativity; ++way) {
            if (_ways[base + way].order < _ways[base + victim].order)
                victim = way;
        }
        return victim;
      }
      case ReplacementPolicy::Random:
        return static_cast<std::uint32_t>(
            _rng.uniformInt(_config.associativity));
      case ReplacementPolicy::TreePlru: {
        // Walk the PLRU tree following the "less recently used" bits.
        std::uint32_t bits = _plru[set];
        std::uint32_t node = 1;
        std::uint32_t levels = std::countr_zero(_config.associativity);
        for (std::uint32_t level = 0; level < levels; ++level) {
            const std::uint32_t bit = (bits >> node) & 1U;
            node = node * 2 + bit;
        }
        return node - _config.associativity;
      }
    }
    TTMCAS_INVARIANT(false, "unhandled ReplacementPolicy");
}

void
Cache::touch(std::uint64_t set, std::uint32_t way, bool is_fill)
{
    const std::size_t base = set * _config.associativity;
    switch (_config.policy) {
      case ReplacementPolicy::Lru:
        _ways[base + way].order = ++_tick;
        break;
      case ReplacementPolicy::Fifo:
        if (is_fill)
            _ways[base + way].order = ++_tick;
        break;
      case ReplacementPolicy::Random:
        break;
      case ReplacementPolicy::TreePlru: {
        // Flip the bits along the path so they point away from this way.
        std::uint32_t node = way + _config.associativity;
        std::uint32_t bits = _plru[set];
        while (node > 1) {
            const std::uint32_t parent = node / 2;
            const std::uint32_t went_right = node & 1U;
            // Point the parent's bit at the *other* child.
            if (went_right)
                bits &= ~(1U << parent);
            else
                bits |= (1U << parent);
            node = parent;
        }
        _plru[set] = bits;
        break;
      }
    }
}

void
Cache::install(std::uint64_t address)
{
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    const std::size_t base = set * _config.associativity;
    for (std::uint32_t way = 0; way < _config.associativity; ++way) {
        if (_ways[base + way].valid && _ways[base + way].tag == tag)
            return; // already resident
    }
    const std::uint32_t victim = victimWay(set);
    Way& entry = _ways[base + victim];
    entry.tag = tag;
    entry.valid = true;
    touch(set, victim, /*is_fill=*/true);
}

bool
Cache::access(std::uint64_t address)
{
    ++_stats.accesses;
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    const std::size_t base = set * _config.associativity;

    for (std::uint32_t way = 0; way < _config.associativity; ++way) {
        Way& entry = _ways[base + way];
        if (entry.valid && entry.tag == tag) {
            ++_stats.hits;
            touch(set, way, /*is_fill=*/false);
            return true;
        }
    }

    install(address);
    if (_config.next_line_prefetch)
        install(address + _config.line_bytes);
    return false;
}

double
Cache::run(const std::vector<std::uint64_t>& addresses)
{
    for (std::uint64_t address : addresses)
        access(address);
    return _stats.missRate();
}

void
Cache::reset()
{
    for (auto& way : _ways)
        way = Way{};
    for (auto& bits : _plru)
        bits = 0;
    _stats = CacheStats{};
    _tick = 0;
    _rng = Rng(_seed);
}

bool
Cache::contains(std::uint64_t address) const
{
    const std::uint64_t set = setIndex(address);
    const std::uint64_t tag = tagOf(address);
    const std::size_t base = set * _config.associativity;
    for (std::uint32_t way = 0; way < _config.associativity; ++way) {
        const Way& entry = _ways[base + way];
        if (entry.valid && entry.tag == tag)
            return true;
    }
    return false;
}

} // namespace ttmcas
