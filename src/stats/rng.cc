#include "stats/rng.hh"

#include <cmath>

#include "support/error.hh"

namespace ttmcas {

namespace {

/** splitmix64 step used for seed expansion (Vigna's reference recipe). */
std::uint64_t
splitmix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& word : _state)
        word = splitmix64(sm);
    // All-zero state would lock xoshiro at zero forever; splitmix64 cannot
    // produce four zero outputs in a row, but guard against it anyway.
    if (_state[0] == 0 && _state[1] == 0 && _state[2] == 0 && _state[3] == 0)
        _state[0] = 1;
}

double
Rng::uniform()
{
    // Top 53 bits give a uniform dyadic rational in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    TTMCAS_REQUIRE(lo <= hi, "uniform bounds must satisfy lo <= hi");
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    return UniformIntSampler(bound)(*this);
}

UniformIntSampler::UniformIntSampler(std::uint64_t bound)
    : _bound(bound), _power_of_two((bound & (bound - 1)) == 0)
{
    TTMCAS_REQUIRE(bound > 0, "uniformInt bound must be positive");
    // A power of two divides 2^64, so no draw is ever rejected.
    if (!_power_of_two)
        _threshold = (~bound + 1) % bound; // 2^64 mod bound
}

double
Rng::normal()
{
    if (_have_cached_normal) {
        _have_cached_normal = false;
        return _cached_normal;
    }
    // Marsaglia polar method produces two deviates per acceptance.
    for (;;) {
        const double u = uniform(-1.0, 1.0);
        const double v = uniform(-1.0, 1.0);
        const double s = u * u + v * v;
        if (s > 0.0 && s < 1.0) {
            const double factor = std::sqrt(-2.0 * std::log(s) / s);
            _cached_normal = v * factor;
            _have_cached_normal = true;
            return u * factor;
        }
    }
}

double
Rng::normal(double mean, double stddev)
{
    TTMCAS_REQUIRE(stddev >= 0.0, "stddev must be non-negative");
    return mean + stddev * normal();
}

Rng
Rng::split()
{
    // Derive the child's seed from fresh parent output; the parent state
    // advances, so successive splits are independent streams.
    return Rng(next() ^ 0xd2b74407b1ce6e93ULL);
}

} // namespace ttmcas
