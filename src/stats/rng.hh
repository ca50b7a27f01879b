#ifndef TTMCAS_STATS_RNG_HH
#define TTMCAS_STATS_RNG_HH

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The Monte-Carlo sensitivity machinery (paper Section 5) must be exactly
 * reproducible across platforms and standard-library versions, so we ship
 * our own generator instead of relying on std::mt19937 distributions
 * (whose std::uniform_* implementations are not portable).
 *
 * The generator is xoshiro256** by Blackman & Vigna: 256 bits of state,
 * period 2^256 - 1, excellent statistical quality, and trivially seedable
 * from a single 64-bit value via splitmix64.
 */

#include <array>
#include <cstdint>

namespace ttmcas {

/** xoshiro256** pseudo-random generator with splitmix64 seeding. */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed deterministically from a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;

        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);

        return result;
    }

    /** UniformRandomBitGenerator interface (for std::shuffle etc.). */
    std::uint64_t operator()() { return next(); }
    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Uniform double in [0, 1) with 53 bits of precision. */
    double
    uniform()
    {
        // Top 53 bits give a uniform dyadic rational in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Uniform integer in [0, bound) without modulo bias. A loop that
     * draws many values under one bound should use UniformIntSampler,
     * which computes the rejection threshold and a divide-free
     * remainder once; both give the same draws.
     */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Standard normal deviate (Marsaglia polar method). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Split off an independent child generator.
     *
     * Parallel sweeps give each lane its own child so results do not
     * depend on evaluation order.
     */
    Rng split();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> _state;
    bool _have_cached_normal = false;
    double _cached_normal = 0.0;
};

/** 128-bit product type of the reciprocal remainder (GCC/Clang). */
__extension__ typedef unsigned __int128 Uint128;

/**
 * Rng::uniformInt with the bound fixed: the same draws, draw for draw,
 * without recomputing the rejection threshold (a 64-bit division) on
 * every call. A power-of-two bound needs no rejection and no division
 * at all; any other bound takes its remainder with a precomputed
 * multiply-high reciprocal (Granlund & Montgomery's round-up method,
 * as in libdivide), which yields raw % bound exactly for every 64-bit
 * raw at about three quarters of the divide's cost.
 */
class UniformIntSampler
{
  public:
    /** A sampler of [0, @p bound); throws ModelError when bound is 0. */
    explicit UniformIntSampler(std::uint64_t bound);

    /** The next draw from @p rng. */
    std::uint64_t
    operator()(Rng& rng) const
    {
        if (_power_of_two)
            return rng.next() & (_bound - 1);
        // Rejection sampling over the largest multiple of bound.
        for (;;) {
            const std::uint64_t raw = rng.next();
            if (raw >= _threshold)
                return remainder(raw);
        }
    }

    /** raw % bound, by the reciprocal (bound must not be a power of two). */
    std::uint64_t
    remainder(std::uint64_t raw) const
    {
        std::uint64_t quotient = static_cast<std::uint64_t>(
            (static_cast<Uint128>(_magic) * raw) >> 64);
        // A 65-bit magic number keeps its top bit implicit: add the
        // numerator back in without overflowing, then shift.
        if (_add)
            quotient = ((raw - quotient) >> 1) + quotient;
        quotient >>= _shift;
        return raw - quotient * _bound;
    }

  private:
    std::uint64_t _bound;
    std::uint64_t _threshold = 0; ///< 2^64 mod bound
    std::uint64_t _magic = 0;     ///< low 64 bits of the reciprocal
    unsigned _shift = 0;
    bool _add = false; ///< the reciprocal needs a 65th bit
    bool _power_of_two = false;
};

} // namespace ttmcas

#endif // TTMCAS_STATS_RNG_HH
