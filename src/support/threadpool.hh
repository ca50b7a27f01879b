#ifndef TTMCAS_SUPPORT_THREADPOOL_HH
#define TTMCAS_SUPPORT_THREADPOOL_HH

/**
 * @file
 * Concurrency layer: a fixed-size thread pool and deterministic
 * data-parallel loop helpers.
 *
 * Every hot loop in the library (Monte-Carlo uncertainty propagation,
 * Saltelli/Sobol model evaluation, bootstrap resampling, design-space
 * sweeps) is embarrassingly parallel: independent model evaluations
 * whose results land in disjoint output slots. The helpers here
 * distribute such loops over a pool of std::thread workers while
 * keeping results *bitwise identical* to the serial path:
 *
 *  - parallelFor(config, n, body) chunks [0, n) into contiguous
 *    ranges of config.grain items and runs them on config.threads
 *    workers. The body must only write state owned by the indices it
 *    is given (e.g. out[i] for i in [begin, end)), so scheduling
 *    order cannot change the result.
 *  - Any randomness must come from per-item (or per-fixed-chunk) RNG
 *    streams split off a parent deterministically *before* the loop
 *    (Rng::split()), never from one shared generator, so the drawn
 *    values do not depend on thread count or execution order.
 *  - Reductions (sums, argmax, percentiles) are performed serially on
 *    the collected per-item buffers, in index order, so floating-point
 *    association is fixed.
 *
 * Grain-size guidance: one "item" in these loops is a full model
 * evaluation (microseconds to milliseconds), so the default grain of
 * 16 amortizes queue traffic without starving workers; raise it for
 * very cheap bodies, or set it to 1 for very expensive ones.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ttmcas {

class CancellationToken;

/**
 * Parallelism knob of every batch kernel (BatchControl::parallel,
 * support/batch_control.hh).
 */
struct ParallelConfig
{
    /** Worker count; 0 = std::thread::hardware_concurrency(). */
    std::size_t threads = 0;
    /** Items per work chunk (see grain-size guidance above). */
    std::size_t grain = 16;

    /** The actual worker count (resolves the 0 = "all cores" default). */
    std::size_t resolvedThreads() const;

    /** True when the loop should run inline on the caller. */
    bool isSerial() const { return resolvedThreads() <= 1; }

    /** Force the serial path (the old single-core behavior). */
    static ParallelConfig serial() { return ParallelConfig{1, 16}; }
};

/**
 * Fixed-size worker pool (std::thread + condition_variable queue).
 *
 * Tasks submitted with submit() run on the workers; wait() blocks the
 * caller until every submitted task (including tasks submitted *by*
 * tasks) has finished, and rethrows the first exception any task
 * threw. Destruction drains the queue and joins the workers.
 */
class ThreadPool
{
  public:
    /** Spawn exactly @p threads workers (>= 1). */
    explicit ThreadPool(std::size_t threads);
    /** Drain the queue and join all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;            ///< non-copyable
    ThreadPool& operator=(const ThreadPool&) = delete; ///< non-copyable

    /** Worker count (fixed for the pool's lifetime). */
    std::size_t threadCount() const { return _workers.size(); }

    /**
     * Enqueue @p task. Safe to call from within a running task
     * (nested submission); never blocks on task execution.
     */
    void submit(std::function<void()> task);

    /**
     * Block until all submitted tasks have completed, then rethrow
     * the first captured task exception, if any. Must not be called
     * from inside a task (a worker waiting on its own pool would
     * deadlock the last free worker).
     */
    void wait();

    /**
     * Run @p body over [0, n) in contiguous chunks of @p grain items
     * distributed over the workers; blocks until the range is done.
     * The body must be safe to run concurrently on disjoint ranges.
     * When chunks throw, rethrows the exception from the *lowest*
     * chunk index — deterministic for any worker count, matching the
     * first exception the serial path would raise. Chunks above a
     * failed chunk are skipped (best effort), never half-run; chunks
     * below it still run so the lowest failure is always found.
     *
     * When @p cancel is non-null the token is checked once per chunk:
     * after it fires, workers stop claiming chunks and return, so the
     * loop completes with some chunks never run (their output slots
     * stay untouched — the point driver's post-pass turns
     * them into structured Cancelled/DeadlineExceeded records). A
     * chunk already executing is never interrupted mid-body, so every
     * slot is either fully written or fully untouched.
     */
    void parallelFor(std::size_t n, std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>&
                         body,
                     const CancellationToken* cancel = nullptr);

  private:
    void workerLoop();

    std::vector<std::thread> _workers;
    std::deque<std::function<void()>> _queue;
    std::mutex _mutex;
    std::condition_variable _task_ready;
    std::condition_variable _all_done;
    std::size_t _pending = 0;
    std::exception_ptr _first_exception;
    bool _stop = false;
};

/**
 * One-shot deterministic parallel loop: runs @p body over [0, n) on a
 * transient pool sized per @p config, or inline when the config is
 * serial (or the range fits a single chunk). See the file comment for
 * the determinism contract the body must obey. @p cancel, when
 * non-null, is honored at chunk granularity on both the pooled and
 * the inline path (ThreadPool::parallelFor documents the semantics).
 */
void parallelFor(const ParallelConfig& config, std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 const CancellationToken* cancel = nullptr);

/**
 * Deterministic parallel map: out[i] = fn(i) for i in [0, n), with
 * the same scheduling, determinism, and cancellation rules as
 * parallelFor. T must be default-constructible; slots of chunks the
 * token stopped keep their default-constructed value.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(const ParallelConfig& config, std::size_t n, Fn&& fn,
            const CancellationToken* cancel = nullptr)
{
    std::vector<T> out(n);
    parallelFor(config, n,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                        out[i] = fn(i);
                },
                cancel);
    return out;
}

} // namespace ttmcas

#endif // TTMCAS_SUPPORT_THREADPOOL_HH
