#include "support/outcome.hh"

#include <sstream>

namespace ttmcas {

const char*
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::InvalidInput:
        return "invalid-input";
      case DiagCode::InternalFault:
        return "internal-fault";
      case DiagCode::NonFiniteTtm:
        return "non-finite-ttm";
      case DiagCode::NonFiniteCas:
        return "non-finite-cas";
      case DiagCode::NonFiniteCost:
        return "non-finite-cost";
      case DiagCode::NonFiniteYield:
        return "non-finite-yield";
      case DiagCode::NonFiniteOutput:
        return "non-finite-output";
      case DiagCode::InjectedFault:
        return "injected-fault";
      case DiagCode::Unknown:
        return "unknown";
      case DiagCode::Cancelled:
        return "cancelled";
      case DiagCode::DeadlineExceeded:
        return "deadline-exceeded";
    }
    TTMCAS_INVARIANT(false, "unhandled DiagCode");
}

std::string
Diagnostic::locate() const
{
    if (file.empty())
        return "?";
    return file + ":" + std::to_string(line);
}

std::string
Diagnostic::describe() const
{
    std::ostringstream os;
    os << "[" << diagCodeName(code) << "]";
    if (point_index != kNoPointIndex)
        os << " point " << point_index;
    os << ": " << message;
    if (!file.empty())
        os << " (" << locate() << ")";
    return os.str();
}

NumericError::NumericError(Diagnostic diagnostic)
    : ModelError(diagnostic.describe()), _diagnostic(std::move(diagnostic))
{}

double
finiteOr(double value, DiagCode code, const std::string& context,
         std::source_location location)
{
    if (std::isfinite(value))
        return value;
    Diagnostic diagnostic;
    diagnostic.code = code;
    diagnostic.message =
        context + " produced a non-finite value (" +
        (std::isnan(value) ? "NaN" : value > 0.0 ? "+Inf" : "-Inf") + ")";
    diagnostic.file = location.file_name();
    diagnostic.line = static_cast<int>(location.line());
    throw NumericError(std::move(diagnostic));
}

void
FailureReport::clear()
{
    _points = 0;
    _failures = 0;
    _counts.fill(0);
    _detailed.clear();
}

void
FailureReport::record(const Diagnostic& diagnostic)
{
    ++_failures;
    ++_counts[static_cast<std::size_t>(diagnostic.code)];
    if (_detailed.size() < _detail_limit)
        _detailed.push_back(diagnostic);
}

double
FailureReport::failureFraction() const
{
    if (_points == 0)
        return 0.0;
    return static_cast<double>(_failures) / static_cast<double>(_points);
}

std::string
FailureReport::summary() const
{
    std::ostringstream os;
    os << _failures << " of " << _points << " points failed";
    if (_failures == 0)
        return os.str();
    os << "\n";
    for (std::size_t i = 0; i < kDiagCodeCount; ++i) {
        if (_counts[i] == 0)
            continue;
        os << "  " << diagCodeName(static_cast<DiagCode>(i)) << ": "
           << _counts[i] << "\n";
    }
    os << "first " << _detailed.size() << " failures:\n";
    for (const Diagnostic& diagnostic : _detailed)
        os << "  " << diagnostic.describe() << "\n";
    return os.str();
}

void
enforcePolicy(const FailureReport& built, const FailurePolicy& policy,
              FailureReport* report, const std::string& kernel)
{
    if (report != nullptr)
        *report = built;
    if (!built.empty() && !policy.skips()) {
        TTMCAS_INVARIANT(!built.detailed().empty(),
                         "an Abort report must keep its first failure");
        throw NumericError(built.detailed().front());
    }
    if (policy.skips() &&
        built.failureFraction() > policy.max_failure_fraction) {
        Diagnostic diagnostic;
        diagnostic.code = DiagCode::InvalidInput;
        diagnostic.message =
            kernel + ": " + std::to_string(built.failureCount()) + " of " +
            std::to_string(built.pointCount()) +
            " points failed, exceeding max_failure_fraction";
        throw NumericError(std::move(diagnostic));
    }
}

} // namespace ttmcas
