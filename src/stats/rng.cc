#include "stats/rng.hh"

#include <bit>
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
Rng::uniform(double lo, double hi)
{
    TTMCAS_REQUIRE(lo <= hi, "uniform bounds must satisfy lo <= hi");
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    TTMCAS_REQUIRE(bound > 0, "uniformInt bound must be positive");
    if ((bound & (bound - 1)) == 0)
        return next() & (bound - 1);
    // UniformIntSampler's draws, but one draw does not repay its
    // reciprocal (two 128-bit divisions): take the remainder directly.
    const std::uint64_t threshold = (~bound + 1) % bound; // 2^64 mod bound
    for (;;) {
        const std::uint64_t raw = next();
        if (raw >= threshold)
            return raw % bound;
    }
}

UniformIntSampler::UniformIntSampler(std::uint64_t bound)
    : _bound(bound), _power_of_two((bound & (bound - 1)) == 0)
{
    TTMCAS_REQUIRE(bound > 0, "uniformInt bound must be positive");
    // A power of two divides 2^64, so no draw is ever rejected.
    if (_power_of_two)
        return;
    _threshold = (~bound + 1) % bound; // 2^64 mod bound
    // magic = floor(2^(64 + shift) / bound) + 1, the reciprocal rounded
    // up, with 2^shift < bound < 2^(shift + 1).
    _shift = 63u - static_cast<unsigned>(std::countl_zero(bound));
    const Uint128 numerator = static_cast<Uint128>(1) << (64 + _shift);
    std::uint64_t magic = static_cast<std::uint64_t>(numerator / bound);
    const std::uint64_t rem = static_cast<std::uint64_t>(numerator % bound);
    if (bound - rem >= (std::uint64_t{1} << _shift)) {
        // The rounding error exceeds 2^shift, so some 64-bit raws would
        // get a wrong quotient: take one more bit of precision (a 65-bit
        // magic whose top bit remainder() adds back).
        magic += magic;
        const std::uint64_t twice_rem = rem + rem;
        if (twice_rem >= bound || twice_rem < rem)
            magic += 1;
        _add = true;
    }
    _magic = magic + 1;
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
