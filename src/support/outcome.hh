#ifndef TTMCAS_SUPPORT_OUTCOME_HH
#define TTMCAS_SUPPORT_OUTCOME_HH

/**
 * @file
 * Failure-isolation layer for batch evaluation.
 *
 * The paper's workflow sweeps thousands of scenario/design points
 * (Monte-Carlo uncertainty propagation, Saltelli/Sobol sensitivity,
 * design-space sweeps). One pathological point — a NaN from an extreme
 * perturbation, a die that fits no wafer, an out-of-production node —
 * must not abort the whole run. The types here let every batch kernel
 * evaluate each point into an Outcome<T> (value or structured
 * Diagnostic), continue past failures under a FailurePolicy, and hand
 * the caller a FailureReport that is bitwise-identical for any thread
 * count:
 *
 *  - Diagnostic: structured failure record (code, message, source
 *    location of the failed check, point index within the batch).
 *  - NumericError: exception carrying a Diagnostic; thrown by the
 *    finiteOr() guards at model outputs so NaN/Inf stop at a named
 *    check instead of silently poisoning downstream reductions.
 *    Derives from ModelError, so existing catch sites keep working.
 *  - Outcome<T>: value-or-Diagnostic result of one point evaluation.
 *  - FailurePolicy: abort (legacy first-throw) vs. skip_and_record,
 *    with a max_failure_fraction circuit breaker.
 *  - FailureReport: counts by code plus the first-N detailed records,
 *    built by a *serial* pass over per-point outcome slots in index
 *    order — the parallel path therefore produces exactly the serial
 *    report (same contract as PR 1's index-ordered reductions).
 */

#include <array>
#include <cmath>
#include <cstddef>
#include <source_location>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "support/error.hh"

namespace ttmcas {

/** point_index value of a Diagnostic raised outside any batch. */
inline constexpr std::size_t kNoPointIndex =
    static_cast<std::size_t>(-1);

/** Machine-readable failure category of a Diagnostic. */
enum class DiagCode : std::uint8_t
{
    InvalidInput = 0,   ///< ModelError: caller-supplied bad config
    InternalFault = 1,  ///< InternalError: a ttmcas invariant broke
    NonFiniteTtm = 2,   ///< TTM evaluation produced NaN/Inf
    NonFiniteCas = 3,   ///< CAS evaluation produced NaN/Inf
    NonFiniteCost = 4,  ///< cost evaluation produced NaN/Inf
    NonFiniteYield = 5, ///< yield model produced NaN/Inf
    NonFiniteOutput = 6,///< kernel-boundary non-finite result
    InjectedFault = 7,  ///< deterministic fault-injection harness
    Unknown = 8,        ///< any other std::exception
    Cancelled = 9,      ///< run stopped by explicit cancellation
    DeadlineExceeded = 10, ///< run stopped by a wall-clock deadline
};

/** Number of DiagCode values (FailureReport count-array size). */
inline constexpr std::size_t kDiagCodeCount = 11;

/** Stable display name of a code ("invalid-input", "injected-fault"). */
const char* diagCodeName(DiagCode code);

/** Structured record of one failed evaluation. */
struct Diagnostic
{
    /** Machine-readable failure category. */
    DiagCode code = DiagCode::Unknown;
    /** Human-readable failure message (deterministic per point). */
    std::string message;
    /** Source file of the failed check; empty when unknown. */
    std::string file;
    /** Source line of the failed check; 0 when unknown. */
    int line = 0;
    /** Index of the failed point within its batch. */
    std::size_t point_index = kNoPointIndex;

    /** "file:line", or "?" when the location is unknown. */
    std::string locate() const;

    /** One-line rendering: "[code] point N: message (file:line)". */
    std::string describe() const;

    /** Field-wise equality (used by determinism tests). */
    bool operator==(const Diagnostic& other) const = default;
};

/**
 * Exception carrying a structured Diagnostic.
 *
 * Derives from ModelError: a non-finite model output is ultimately an
 * input problem (an extreme perturbation drove the model out of its
 * domain), and deriving keeps every existing catch (ModelError&) site
 * — portfolio seeding, CLI error paths — working unchanged.
 */
class NumericError : public ModelError
{
  public:
    /** Wrap @p diagnostic; what() renders diagnostic.describe(). */
    explicit NumericError(Diagnostic diagnostic);

    /** The structured failure record this exception carries. */
    const Diagnostic& diagnostic() const { return _diagnostic; }

  private:
    Diagnostic _diagnostic;
};

/**
 * Throw the NumericError of a non-finite @p value: finiteOr's failure
 * path, kept out of line so the guard inlines to one test.
 */
[[noreturn]] void throwNonFinite(double value, DiagCode code,
                                 std::string_view context,
                                 std::source_location location);

/**
 * Guard a model output: returns @p value unchanged when finite, throws
 * NumericError tagged with @p code (and the call site) otherwise. Used
 * at the outputs of TTM, CAS, cost, and yield evaluation so NaN/Inf
 * become diagnostics instead of silent poison.
 *
 * @p context names the guarded value in the diagnostic: a string, or
 * a callable returning one. A callable runs only when the guard
 * fires, so a context that concatenates names costs nothing on the
 * success path.
 */
template <typename Context>
double
finiteOr(double value, DiagCode code, Context&& context,
         std::source_location location = std::source_location::current())
{
    if (std::isfinite(value)) [[likely]]
        return value;
    if constexpr (std::is_invocable_v<Context>)
        throwNonFinite(value, code, context(), location);
    else
        throwNonFinite(value, code, context, location);
}

/** What a batch kernel does when a point evaluation fails. */
struct FailurePolicy
{
    /** The two failure-handling modes. */
    enum class Mode : std::uint8_t
    {
        /** Rethrow the lowest-index failure (legacy behavior). */
        Abort,
        /** Skip the point, record its Diagnostic, keep going. */
        SkipAndRecord,
    };

    /** Active failure handling mode (Abort by default). */
    Mode mode = Mode::Abort;

    /**
     * Circuit breaker for SkipAndRecord: when more than this fraction
     * of the batch fails, the kernel aborts anyway (a mostly-failing
     * sweep indicates a broken configuration, not a few bad points).
     */
    double max_failure_fraction = 1.0;

    /** True under SkipAndRecord (failed points are skipped). */
    bool skips() const { return mode == Mode::SkipAndRecord; }

    /** The legacy first-throw policy (the default). */
    static FailurePolicy abort() { return FailurePolicy{}; }

    /** Skip-and-record with an optional circuit-breaker fraction. */
    static FailurePolicy skipAndRecord(double max_fraction = 1.0)
    {
        return FailurePolicy{Mode::SkipAndRecord, max_fraction};
    }
};

/**
 * Aggregated failures of one batch run.
 *
 * Determinism contract: kernels write per-point Outcome slots (possibly
 * in parallel) and then build the report with a serial pass in point-
 * index order, so counts, detailed-record selection, and rendering are
 * independent of thread count and scheduling.
 */
class FailureReport
{
  public:
    /** Detailed records kept (first N failures in point order). */
    static constexpr std::size_t kDefaultDetailLimit = 16;

    /** An empty report keeping kDefaultDetailLimit detailed records. */
    FailureReport() = default;
    /** An empty report keeping at most @p detail_limit records. */
    explicit FailureReport(std::size_t detail_limit)
        : _detail_limit(detail_limit)
    {}

    /** Reset to the clean state (zero points, zero failures). */
    void clear();

    /** Count one evaluated point (clean or failed). */
    void addPoint() { ++_points; }

    /** Record one failure. Call in point-index order. */
    void record(const Diagnostic& diagnostic);

    /** Total points evaluated (clean + failed). */
    std::size_t pointCount() const { return _points; }

    /** Total failed points. */
    std::size_t failureCount() const { return _failures; }

    /** True when no point has failed. */
    bool empty() const { return _failures == 0; }

    /** failures / points, 0 for an empty batch. */
    double failureFraction() const;

    /** Failure count of one code. */
    std::size_t count(DiagCode code) const
    {
        return _counts[static_cast<std::size_t>(code)];
    }

    /** First-N detailed records, ascending point index. */
    const std::vector<Diagnostic>& detailed() const { return _detailed; }

    /**
     * Deterministic multi-line rendering: headline, per-code counts in
     * enum order, then the detailed records.
     */
    std::string summary() const;

    /** Field-wise equality (used by determinism tests). */
    bool operator==(const FailureReport& other) const = default;

  private:
    std::size_t _points = 0;
    std::size_t _failures = 0;
    std::array<std::size_t, kDiagCodeCount> _counts{};
    std::vector<Diagnostic> _detailed;
    std::size_t _detail_limit = kDefaultDetailLimit;
};

/** Value-or-Diagnostic result of one point evaluation. */
template <typename T>
class Outcome
{
  public:
    /** Default: an unwritten slot reads as an Unknown failure. */
    Outcome()
        : _data(Diagnostic{DiagCode::Unknown, "point was never evaluated",
                           "", 0, kNoPointIndex})
    {}

    /** A successful outcome holding @p value. */
    static Outcome success(T value)
    {
        Outcome outcome;
        outcome._data = std::move(value);
        return outcome;
    }

    /** A failed outcome holding @p diagnostic. */
    static Outcome failure(Diagnostic diagnostic)
    {
        Outcome outcome;
        outcome._data = std::move(diagnostic);
        return outcome;
    }

    /** True when the evaluation succeeded (a value is held). */
    bool ok() const { return std::holds_alternative<T>(_data); }

    /** Same as ok(): `if (outcome)` tests for success. */
    explicit operator bool() const { return ok(); }

    /** The value; throws the held Diagnostic as NumericError if failed. */
    const T& value() const
    {
        if (!ok())
            throw NumericError(std::get<Diagnostic>(_data));
        return std::get<T>(_data);
    }

    /** The value, or @p fallback when the evaluation failed. */
    T valueOr(T fallback) const
    {
        return ok() ? std::get<T>(_data) : std::move(fallback);
    }

    /** The Diagnostic; throws InternalError on a successful outcome. */
    const Diagnostic& diagnostic() const
    {
        TTMCAS_INVARIANT(!ok(),
                         "diagnostic() called on a successful Outcome");
        return std::get<Diagnostic>(_data);
    }

  private:
    std::variant<T, Diagnostic> _data;
};

/**
 * Classify the exception currently being handled (call only inside a
 * catch block) as a Diagnostic tagged with @p point_index. NumericError
 * keeps its structured code/location; ModelError maps to InvalidInput,
 * InternalError to InternalFault, any other std::exception to Unknown.
 */
inline Diagnostic
currentDiagnostic(std::size_t point_index)
{
    try {
        throw;
    } catch (const NumericError& error) {
        Diagnostic diagnostic = error.diagnostic();
        diagnostic.point_index = point_index;
        return diagnostic;
    } catch (const InternalError& error) {
        return Diagnostic{DiagCode::InternalFault, error.what(), "", 0,
                          point_index};
    } catch (const ModelError& error) {
        return Diagnostic{DiagCode::InvalidInput, error.what(), "", 0,
                          point_index};
    } catch (const std::exception& error) {
        return Diagnostic{DiagCode::Unknown, error.what(), "", 0,
                          point_index};
    }
}

/**
 * Run one point evaluation through the isolation layer: a
 * std::exception becomes a Diagnostic tagged with @p point_index (see
 * currentDiagnostic()).
 */
template <typename Fn>
auto
guardedPoint(std::size_t point_index, Fn&& fn)
    -> Outcome<decltype(fn())>
{
    using T = decltype(fn());
    try {
        return Outcome<T>::success(fn());
    } catch (const std::exception&) {
        return Outcome<T>::failure(currentDiagnostic(point_index));
    }
}

/**
 * Enforce @p policy on an already built report: throw NumericError
 * carrying the lowest-index failure under Abort, and throw when
 * SkipAndRecord's max_failure_fraction is exceeded. @p report, when
 * non-null, receives @p built before anything is thrown. @p kernel
 * names the batch in circuit-breaker messages.
 */
void enforcePolicy(const FailureReport& built, const FailurePolicy& policy,
                   FailureReport* report, const std::string& kernel);

/**
 * Serial post-pass over per-point outcome slots: build the
 * FailureReport in index order, then enforcePolicy() it.
 */
template <typename T>
void
enforcePolicy(const std::vector<Outcome<T>>& outcomes,
              const FailurePolicy& policy, FailureReport* report,
              const std::string& kernel)
{
    FailureReport built;
    for (const Outcome<T>& outcome : outcomes) {
        built.addPoint();
        if (!outcome.ok())
            built.record(outcome.diagnostic());
    }
    enforcePolicy(built, policy, report, kernel);
}

} // namespace ttmcas

#endif // TTMCAS_SUPPORT_OUTCOME_HH
