#include "stats/fault_injection.hh"

#include <limits>
#include <string>

#include "support/error.hh"

namespace ttmcas {

FaultInjector::FaultInjector(Options options) : _options(options)
{
    TTMCAS_REQUIRE(_options.probability >= 0.0 &&
                       _options.probability <= 1.0,
                   "fault probability must be in [0, 1]");
}

Rng
FaultInjector::pointStream(std::size_t point) const
{
    // Random-access variant of Rng::split(): derive each point's seed
    // from (seed, index) with the golden-ratio increment splitmix64
    // uses, then let Rng's constructor expand it to xoshiro state.
    // Depends only on seed and point, never on evaluation order.
    return Rng(_options.seed ^
               (0x9e3779b97f4a7c15ULL *
                (static_cast<std::uint64_t>(point) + 1)));
}

bool
FaultInjector::armedAt(std::size_t point) const
{
    if (!enabled())
        return false;
    Rng stream = pointStream(point);
    return stream.uniform() < _options.probability;
}

FaultInjector::FaultKind
FaultInjector::kindAt(std::size_t point) const
{
    Rng stream = pointStream(point);
    stream.uniform(); // arming draw
    return static_cast<FaultKind>(stream.uniformInt(4));
}

std::size_t
FaultInjector::armedCount(std::size_t n) const
{
    std::size_t count = 0;
    for (std::size_t point = 0; point < n; ++point) {
        if (armedAt(point))
            ++count;
    }
    return count;
}

void
FaultInjector::throwInjected(std::size_t point) const
{
    Diagnostic diagnostic;
    diagnostic.code = DiagCode::InjectedFault;
    diagnostic.message =
        "injected fault (seed " + std::to_string(_options.seed) + ")";
    diagnostic.point_index = point;
    throw NumericError(std::move(diagnostic));
}

double
FaultInjector::faultValue(std::size_t point) const
{
    TTMCAS_INVARIANT(armedAt(point),
                     "faultValue() called for an unarmed point");
    switch (kindAt(point)) {
      case FaultKind::NanValue:
      case FaultKind::OutOfDomain:
        return std::numeric_limits<double>::quiet_NaN();
      case FaultKind::InfValue:
        return std::numeric_limits<double>::infinity();
      case FaultKind::Throw:
        throwInjected(point);
    }
    TTMCAS_INVARIANT(false, "unhandled FaultKind");
}

} // namespace ttmcas
