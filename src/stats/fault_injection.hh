#ifndef TTMCAS_STATS_FAULT_INJECTION_HH
#define TTMCAS_STATS_FAULT_INJECTION_HH

/**
 * @file
 * Deterministic fault injection for the robustness test suite.
 *
 * A FaultInjector arms a deterministic, random-access subset of a
 * batch's point indices and makes each armed point fail: the batch
 * driver (stats/batch_driver.hh) substitutes a non-finite evaluation
 * result for it, or the injector throws a NumericError outright.
 * Because arming depends only on (seed, point index) — each point gets
 * its own xoshiro stream derived with the same splitmix64 expansion
 * Rng uses for seeding and stream splits — the injected-fault set is
 * identical for any thread count or evaluation order, and its size is
 * computable up front with armedCount(). The `ctest -L robustness`
 * suite uses that to assert every batch kernel survives injection
 * under FailurePolicy::skipAndRecord and reports *exactly* the
 * injected count.
 */

#include <cstddef>
#include <cstdint>

#include "stats/rng.hh"
#include "support/outcome.hh"

namespace ttmcas {

/** Deterministic per-point fault source. */
class FaultInjector
{
  public:
    /** How an armed point is made to fail. */
    enum class FaultKind : std::uint8_t
    {
        NanValue = 0,    ///< result becomes quiet NaN
        InfValue = 1,    ///< result becomes +infinity
        OutOfDomain = 2, ///< result becomes quiet NaN (out of domain)
        Throw = 3,       ///< throw NumericError (a ModelError)
    };

    /** Arming configuration. */
    struct Options
    {
        /** Per-point fault probability in [0, 1]. */
        double probability = 0.0;
        /** Seed of the per-point arming streams. */
        std::uint64_t seed = 0xfa017ULL;
    };

    /** A disarmed injector (probability 0). */
    FaultInjector() = default;

    /** An injector arming points per @p options (validates them). */
    explicit FaultInjector(Options options);

    /** The arming configuration this injector was built with. */
    const Options& options() const { return _options; }

    /** True when the injector can arm any point at all. */
    bool enabled() const { return _options.probability > 0.0; }

    /** True when @p point is armed (depends only on seed and index). */
    bool armedAt(std::size_t point) const;

    /** Fault kind of an armed point (cycles through all kinds). */
    FaultKind kindAt(std::size_t point) const;

    /** Number of armed points in [0, n) — the expected failure count. */
    std::size_t armedCount(std::size_t n) const;

    /**
     * Fabricate a failing evaluation *result* for an armed point: NaN
     * or +Inf (so the kernel's finiteOr boundary guard fires), or
     * throws NumericError with code InjectedFault. Must only be called
     * for armed points.
     */
    double faultValue(std::size_t point) const;

  private:
    Rng pointStream(std::size_t point) const;
    [[noreturn]] void throwInjected(std::size_t point) const;

    Options _options;
};

} // namespace ttmcas

#endif // TTMCAS_STATS_FAULT_INJECTION_HH
