#ifndef TTMCAS_SUPPORT_BATCH_CONTROL_HH
#define TTMCAS_SUPPORT_BATCH_CONTROL_HH

/**
 * @file
 * The control knobs every batch kernel shares.
 *
 * Each kernel's option struct (UncertaintyAnalysis::Options,
 * SobolOptions, CacheSweepOptions, EnsembleOptions, ...) derives from
 * BatchControl, so these fields are declared once and read in one
 * place: the point driver (stats/batch_driver.hh), which owns
 * parallelism, failure isolation, fault injection, cancellation and
 * checkpoint/resume for every kernel.
 */

#include "support/outcome.hh"
#include "support/threadpool.hh"

namespace ttmcas {

class FaultInjector;
class CancellationToken;
class SweepCheckpoint;

/** Parallelism, failure handling, stop and resume of one batch run. */
struct BatchControl
{
    /**
     * Point-evaluation parallelism. Every point is a pure function of
     * its index, so results are bitwise-identical for any thread
     * count; threads = 1 forces the serial path, 0 uses every core.
     */
    ParallelConfig parallel;
    /**
     * Per-point failure handling: Abort (default), which raises the
     * lowest-index failure, or SkipAndRecord, which drops failed
     * points and records their diagnostics.
     */
    FailurePolicy failure_policy;
    /**
     * When non-null, receives the run's FailureReport — identical for
     * any thread count. Unowned.
     */
    FailureReport* failure_report = nullptr;
    /**
     * Optional deterministic fault injector (robustness testing): an
     * armed point fails instead of being evaluated. Unowned.
     */
    const FaultInjector* fault_injector = nullptr;
    /**
     * Cooperative stop (deadline / SIGINT), checked between chunks;
     * points the stop prevented are recorded as Cancelled or
     * DeadlineExceeded failures. Unowned, may be null.
     */
    const CancellationToken* cancel = nullptr;
    /**
     * Completed points of an earlier interrupted run, restored
     * bit-exactly instead of re-evaluated. Must be bound to the same
     * kernel, seed and point count. Unowned, may be null.
     */
    const SweepCheckpoint* resume_from = nullptr;
    /**
     * When non-null, completed points are recorded here (bound to this
     * run) for a later resume. Unowned.
     */
    SweepCheckpoint* checkpoint = nullptr;
};

} // namespace ttmcas

#endif // TTMCAS_SUPPORT_BATCH_CONTROL_HH
