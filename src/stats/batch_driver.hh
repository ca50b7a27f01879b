#ifndef TTMCAS_STATS_BATCH_DRIVER_HH
#define TTMCAS_STATS_BATCH_DRIVER_HH

/**
 * @file
 * The one point driver behind every batch kernel.
 *
 * Every batch kernel — Monte-Carlo sampling, Saltelli/Sobol and its
 * bootstrap, the capacity sweep, the cache sweep, the split planner,
 * portfolio seeding, scenario ensembles, chiplet sweeps — is a loop
 * over points whose value is a pure function of (inputs, seed,
 * index). A kernel describes that loop as a PointKernel: "evaluate
 * point i", plus optionally "fill chunk [b, e) into values and
 * per-lane ok flags" (a compiled SoA kernel). The driver owns
 * everything else:
 *
 *  - checkpoint binding (requireMatches / bind), resume restore, and
 *    the record of every completed point;
 *  - the FaultInjector, applied as a lane mask: an armed point fails
 *    through faultValue() instead of being evaluated, so the injected
 *    set depends only on (seed, index);
 *  - the scalar re-run of every lane the chunk flagged, guarded by
 *    currentDiagnostic() and, for double points, a finiteOr boundary
 *    check;
 *  - the chunked parallelFor, with a cancellation check between
 *    chunks;
 *  - the serial post-pass: points a stop prevented become
 *    Cancelled / DeadlineExceeded records, the FailureReport is built
 *    in index order, and the FailurePolicy is enforced.
 *
 * Under Abort the lowest-index failure propagates as the exception its
 * evaluation threw — what a plain serial loop would have raised. A
 * failure without an exception (a stop) raises NumericError.
 *
 * Determinism: each point writes only its own slot and failures are
 * sorted by point index before the report is built, so values, report
 * and raised error are identical for any thread count or grain.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats/fault_injection.hh"
#include "support/batch_control.hh"
#include "support/cancel.hh"
#include "support/checkpoint.hh"
#include "support/error.hh"
#include "support/metrics.hh"
#include "support/outcome.hh"
#include "support/threadpool.hh"

namespace ttmcas {

/** What a batch kernel supplies to the driver. */
template <typename T>
struct PointKernel
{
    /** Kernel name: diagnostics, policy messages, checkpoint binding. */
    const char* name = "";
    /** Run seed the checkpoint is bound to. */
    std::uint64_t seed = 0;
    /** Points evaluated by this call. */
    std::size_t count = 0;
    /**
     * Global index of this call's point 0 and the run's global point
     * count (0 = count). Only a kernel that walks its point space in
     * more than one pass sets these.
     */
    std::size_t first = 0;
    std::size_t total = 0;
    /** Code of a non-finite result (double points and injected faults). */
    DiagCode nonfinite = DiagCode::NonFiniteOutput;
    /** Counts the points of every chunk (restored ones too); may be null. */
    const obs::Counter* counter = nullptr;
    /** Evaluate point i (local index); throws on failure. */
    std::function<T(std::size_t)> point;
    /**
     * Optional batch fill of points [b, e) into out[0, e - b), with
     * ok[j] = 1 for a lane that holds its exact result. A lane left at
     * 0 is re-run through point().
     */
    std::function<void(std::size_t, std::size_t, T*, unsigned char*)>
        chunk;
    /** Checkpoint slots per point (point g owns [width*g, width*g+width)). */
    std::size_t width = 1;
    /** Checkpoint codec of a non-double point. */
    std::function<void(const T&, double*)> save;
    std::function<T(std::size_t, const double*)> restore;
};

/** The failed points of one driver run. */
struct BatchFailures
{
    /** Points covered (clean + failed). */
    std::size_t points = 0;
    /** One record per failed point, ascending point index. */
    std::vector<Diagnostic> diagnostics;
    /** The exception of the lowest-index failed evaluation, if any. */
    std::exception_ptr error;
    /** Global index of the point that threw @ref error. */
    std::size_t error_point = kNoPointIndex;

    /** Append the failures of a later pass (all of higher index). */
    void
    append(BatchFailures&& later)
    {
        points += later.points;
        diagnostics.insert(diagnostics.end(),
                           std::make_move_iterator(later.diagnostics.begin()),
                           std::make_move_iterator(later.diagnostics.end()));
        if (error == nullptr) {
            error = std::move(later.error);
            error_point = later.error_point;
        }
    }
};

/** Per-point values of one driver run. */
template <typename T>
struct PointBatch
{
    /** Per-point state. */
    enum State : unsigned char
    {
        kPending = 0, ///< never evaluated (a stop came first)
        kDone = 1,    ///< values[i] holds the point's result
        kFailed = 2,  ///< recorded in failures
    };

    std::vector<T> values;
    std::vector<unsigned char> state;
    BatchFailures failures;

    /** True when point i (local index) holds its result. */
    bool done(std::size_t i) const { return state[i] == kDone; }

    /** The values of the done points, in index order. */
    std::vector<T>
    survivors() &&
    {
        if (failures.diagnostics.empty())
            return std::move(values);
        std::vector<T> kept;
        kept.reserve(values.size() - failures.diagnostics.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (done(i))
                kept.push_back(std::move(values[i]));
        }
        return kept;
    }
};

/**
 * Build the FailureReport of @p failures in index order, hand it to
 * control.failure_report, and enforce control.failure_policy. Under
 * Abort the lowest-index failure is rethrown as its own exception when
 * it has one.
 */
inline void
enforceBatch(const BatchControl& control, const char* kernel,
             const BatchFailures& failures)
{
    FailureReport built;
    for (std::size_t i = 0; i < failures.points; ++i)
        built.addPoint();
    for (const Diagnostic& diagnostic : failures.diagnostics)
        built.record(diagnostic);
    if (!control.failure_policy.skips() && failures.error != nullptr &&
        failures.diagnostics.front().point_index == failures.error_point) {
        if (control.failure_report != nullptr)
            *control.failure_report = built;
        std::rethrow_exception(failures.error);
    }
    enforcePolicy(built, control.failure_policy, control.failure_report,
                  kernel);
}

/**
 * Evaluate every point of @p kernel under @p control — restore,
 * inject, chunk, scalar re-run, checkpoint, cancel — without enforcing
 * the failure policy. A multi-pass kernel appends the passes' failures
 * and calls enforceBatch() once; everything else uses runPoints().
 */
template <typename T>
PointBatch<T>
evaluatePoints(const BatchControl& control, const PointKernel<T>& kernel)
{
    constexpr bool kScalar = std::is_same_v<T, double>;
    // SoA block bound: keeps the chunk scratch small when an inline
    // serial loop hands the whole range to one body call.
    constexpr std::size_t kBlock = 256;

    const std::size_t n = kernel.count;
    const std::size_t total = kernel.total == 0 ? n : kernel.total;
    const std::size_t width = kernel.width;
    const SweepCheckpoint* resume = control.resume_from;
    SweepCheckpoint* checkpoint = control.checkpoint;
    if (resume != nullptr)
        resume->requireMatches(kernel.name, kernel.seed, width * total);
    if (checkpoint != nullptr)
        checkpoint->bind(kernel.name, kernel.seed, width * total);
    const FaultInjector* injector =
        control.fault_injector != nullptr &&
                control.fault_injector->enabled()
            ? control.fault_injector
            : nullptr;

    PointBatch<T> batch;
    batch.values.resize(n);
    batch.state.assign(n, PointBatch<T>::kPending);
    batch.failures.points = n;
    std::mutex failure_mutex;

    const auto armed = [&](std::size_t i) {
        return injector != nullptr && injector->armedAt(kernel.first + i);
    };
    const auto finite = [](const T& value) {
        if constexpr (kScalar)
            return std::isfinite(value);
        else
            return true;
    };
    // The scalar oracle of point i: throws whatever the point's
    // evaluation throws, so a re-run reproduces it exactly.
    const auto evaluate = [&](std::size_t i) -> T {
        if (armed(i)) {
            finiteOr(injector->faultValue(kernel.first + i),
                     kernel.nonfinite, kernel.name);
            TTMCAS_INVARIANT(false, "an injected fault must fail its point");
        }
        T value = kernel.point(i);
        if constexpr (kScalar) {
            if (!std::isfinite(value))
                finiteOr(value, kernel.nonfinite, kernel.name);
        }
        return value;
    };
    const auto restore = [&](std::size_t i, T& out) {
        const std::size_t base = width * (kernel.first + i);
        for (std::size_t s = 0; s < width; ++s) {
            if (!resume->has(base + s))
                return false;
        }
        if constexpr (kScalar) {
            out = resume->value(base);
        } else {
            std::vector<double> slots(width);
            for (std::size_t s = 0; s < width; ++s)
                slots[s] = resume->value(base + s);
            out = kernel.restore(i, slots.data());
        }
        return true;
    };
    const auto record = [&](std::size_t i, const T& value) {
        const std::size_t base = width * (kernel.first + i);
        if constexpr (kScalar) {
            checkpoint->record(base, value);
        } else {
            std::vector<double> slots(width);
            kernel.save(value, slots.data());
            for (std::size_t s = 0; s < width; ++s)
                checkpoint->record(base + s, slots[s]);
        }
    };
    const auto fail = [&](std::size_t i) {
        const std::size_t point = kernel.first + i;
        Diagnostic diagnostic = currentDiagnostic(point);
        std::lock_guard<std::mutex> lock(failure_mutex);
        batch.failures.diagnostics.push_back(std::move(diagnostic));
        if (batch.failures.error == nullptr ||
            point < batch.failures.error_point) {
            batch.failures.error = std::current_exception();
            batch.failures.error_point = point;
        }
    };

    const auto block = [&](std::size_t b, std::size_t e) {
        thread_local std::vector<T> lanes;
        thread_local std::vector<unsigned char> lane_ok;
        bool pending = false;
        for (std::size_t i = b; i < e; ++i) {
            if (resume != nullptr && restore(i, batch.values[i]))
                batch.state[i] = PointBatch<T>::kDone;
            else
                pending = true;
        }
        const bool batched = pending && kernel.chunk;
        if (batched) {
            lanes.resize(e - b);
            lane_ok.assign(e - b, 0);
            kernel.chunk(b, e, lanes.data(), lane_ok.data());
        }
        for (std::size_t i = b; i < e; ++i) {
            if (batch.state[i] == PointBatch<T>::kPending) {
                if (batched && lane_ok[i - b] && finite(lanes[i - b]) &&
                    !armed(i)) {
                    batch.values[i] = std::move(lanes[i - b]);
                } else {
                    try {
                        batch.values[i] = evaluate(i);
                    } catch (const std::exception&) {
                        batch.state[i] = PointBatch<T>::kFailed;
                        fail(i);
                        continue;
                    }
                }
                batch.state[i] = PointBatch<T>::kDone;
            }
            if (checkpoint != nullptr)
                record(i, batch.values[i]);
        }
        if (kernel.counter != nullptr)
            kernel.counter->add(e - b);
    };
    parallelFor(
        control.parallel, n,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t b = begin; b < end; b += kBlock)
                block(b, std::min(end, b + kBlock));
        },
        control.cancel);

    std::vector<Diagnostic>& diagnostics = batch.failures.diagnostics;
    if (control.cancel != nullptr && control.cancel->stopRequested()) {
        for (std::size_t i = 0; i < n; ++i) {
            if (batch.state[i] == PointBatch<T>::kPending)
                diagnostics.push_back(control.cancel->stopDiagnostic(
                    kernel.first + i, kernel.name));
        }
    }
    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                  return a.point_index < b.point_index;
              });
    return batch;
}

/** evaluatePoints() followed by enforceBatch(): the whole run. */
template <typename T>
PointBatch<T>
runPoints(const BatchControl& control, const PointKernel<T>& kernel)
{
    PointBatch<T> batch = evaluatePoints(control, kernel);
    enforceBatch(control, kernel.name, batch.failures);
    return batch;
}

} // namespace ttmcas

#endif // TTMCAS_STATS_BATCH_DRIVER_HH
