#ifndef TTMCAS_SUPPORT_CANCEL_HH
#define TTMCAS_SUPPORT_CANCEL_HH

/**
 * @file
 * Cooperative cancellation and wall-clock deadlines for batch kernels.
 *
 * Production schedulers kill, preempt, and time-box exactly the jobs
 * this library runs (10k-sample Monte-Carlo draws, Saltelli/Sobol
 * sweeps, portfolio planning). A CancellationToken lets such a run
 * stop *cleanly*: the batch kernels and ThreadPool::parallelFor check
 * the token cooperatively at chunk granularity, stop claiming new
 * work once it fires, and mark every unevaluated point with a
 * structured Diagnostic (DiagCode::Cancelled or DeadlineExceeded) so
 * the caller receives a partial-but-well-formed result plus a
 * FailureReport instead of a crash, a hang, or silent truncation.
 *
 * The token fires for two reasons, tracked separately:
 *
 *  - requestCancel(): an explicit external stop — SIGINT via
 *    ScopedSigintCancel, a scheduler preemption notice, a caller's
 *    early exit. Reported as DiagCode::Cancelled.
 *  - a deadline set with setDeadlineAfter()/setDeadline(): a
 *    wall-clock budget. Reported as DiagCode::DeadlineExceeded.
 *
 * Determinism: *which* points complete before the token fires is
 * inherently timing-dependent, but every completed point's value is
 * not (per-point RNG streams, index-addressed slots). That is what
 * makes checkpoint/resume (support/checkpoint.hh) bitwise exact: a
 * resumed run restores the completed subset and recomputes the rest,
 * landing on the identical final result.
 */

#include <atomic>
#include <chrono>
#include <cstdint>

#include "support/outcome.hh"

namespace ttmcas {

/**
 * Thread-safe, signal-safe cooperative stop flag with an optional
 * wall-clock deadline.
 *
 * Readers (worker threads inside parallel loops) call stopRequested()
 * freely; requestCancel() may be called from any thread and — because
 * it is a single lock-free atomic store — from a signal handler.
 */
class CancellationToken
{
  public:
    CancellationToken() = default;

    CancellationToken(const CancellationToken&) = delete;
    CancellationToken& operator=(const CancellationToken&) = delete;

    /** Request an explicit stop. Signal-safe, idempotent. */
    void requestCancel() noexcept
    {
        _cancelled.store(true, std::memory_order_relaxed);
    }

    /** True once requestCancel() has been called. */
    bool cancelRequested() const noexcept
    {
        return _cancelled.load(std::memory_order_relaxed);
    }

    /** Arm a wall-clock deadline @p seconds from now (>= 0). */
    void setDeadlineAfter(double seconds);

    /**
     * Arm an absolute steady_clock deadline. Re-arming an already
     * expired token does not un-expire it (the stop state is monotone
     * for the lifetime of a run); use reset() to disarm fully.
     */
    void setDeadline(std::chrono::steady_clock::time_point deadline);

    /** True when a deadline has been armed. */
    bool hasDeadline() const noexcept
    {
        return _deadline_ns.load(std::memory_order_relaxed) != kNoDeadline;
    }

    /**
     * True once the armed deadline has passed. Latches: after the
     * first expired observation the clock is no longer read.
     */
    bool deadlineExpired() const noexcept;

    /** True when the run should stop (cancel or deadline). */
    bool stopRequested() const noexcept
    {
        return cancelRequested() || deadlineExpired();
    }

    /**
     * Why the run stopped: Cancelled for an explicit request,
     * DeadlineExceeded otherwise. Only meaningful once
     * stopRequested() is true; explicit cancellation wins when both
     * fired.
     */
    DiagCode stopCode() const noexcept
    {
        return cancelRequested() ? DiagCode::Cancelled
                                 : DiagCode::DeadlineExceeded;
    }

    /**
     * Structured record for a point the stop prevented from being
     * evaluated: stopCode(), a deterministic message naming
     * @p kernel, and @p point as the point index.
     */
    Diagnostic stopDiagnostic(std::size_t point,
                              const char* kernel) const;

    /** Disarm: clear the cancel flag and any deadline. */
    void reset() noexcept;

  private:
    static constexpr std::int64_t kNoDeadline = -1;

    std::atomic<bool> _cancelled{false};
    /** Latched "deadline observed expired" flag (avoid clock reads). */
    mutable std::atomic<bool> _expired{false};
    /** Deadline as steady_clock nanoseconds-since-epoch; -1 = none. */
    std::atomic<std::int64_t> _deadline_ns{kNoDeadline};
};

/**
 * RAII stop-signal-to-token bridge: while alive, SIGINT (Ctrl-C) and
 * SIGTERM (the signal daemon supervisors send first) request
 * cancellation on @p token instead of killing the process; the
 * previous handlers are restored on destruction. At most one instance
 * may be alive at a time (enforced). The handler performs only a
 * lock-free atomic store, so it is async-signal-safe for both
 * signals.
 */
class ScopedSigintCancel
{
  public:
    explicit ScopedSigintCancel(CancellationToken& token);
    ~ScopedSigintCancel();

    ScopedSigintCancel(const ScopedSigintCancel&) = delete;
    ScopedSigintCancel& operator=(const ScopedSigintCancel&) = delete;

  private:
    void (*_previous_int)(int) = nullptr;
    void (*_previous_term)(int) = nullptr;
};

} // namespace ttmcas

#endif // TTMCAS_SUPPORT_CANCEL_HH
