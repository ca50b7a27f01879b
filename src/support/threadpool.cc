#include "support/threadpool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "support/cancel.hh"
#include "support/error.hh"
#include "support/metrics.hh"

namespace ttmcas {

namespace {

// Pool observability (see docs/OBSERVABILITY.md): queue-depth high
// water, total worker busy time, task count, threads spawned, and
// chunk sizes. All recording no-ops while metrics are disabled.
const obs::Gauge&
queueDepthGauge()
{
    static const obs::Gauge gauge("pool.queue_depth_max");
    return gauge;
}

const obs::Counter&
busyCounter()
{
    static const obs::Counter counter("pool.busy_us");
    return counter;
}

const obs::Counter&
taskCounter()
{
    static const obs::Counter counter("pool.tasks");
    return counter;
}

const obs::Counter&
threadsStartedCounter()
{
    static const obs::Counter counter("pool.threads_started");
    return counter;
}

const obs::Histogram&
chunkSizeHistogram()
{
    static const obs::Histogram histogram(
        "pool.chunk_size",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0,
         4096.0});
    return histogram;
}

// The core count, read once: hardware_concurrency() is a system call,
// and every parallelFor (serial ones included) resolves its config.
std::size_t
hardwareThreads()
{
    static const std::size_t cores = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
    }();
    return cores;
}

// True on a pool worker and on a caller while it runs a loop's
// chunks: a parallelFor started there runs inline.
thread_local bool t_inside_parallel = false;

/**
 * The shared state of one parallel loop. Threads claim chunk indices
 * from `next` and retire each claimed chunk once it has run or been
 * skipped; the caller waits for all `chunks` to retire. A helper task
 * that starts after every chunk was claimed finds none and returns
 * without touching `body`, so the state outlives the call (helpers
 * hold it by shared_ptr) but the body need not.
 */
struct LoopState
{
    static constexpr std::size_t kNoFailure = static_cast<std::size_t>(-1);

    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    const CancellationToken* cancel = nullptr;
    std::size_t n = 0;
    std::size_t grain = 1;
    std::size_t chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> retired{0};
    /** Lowest chunk that threw so far (kNoFailure until one does). */
    std::atomic<std::size_t> failed_chunk{kNoFailure};
    std::mutex mutex; ///< guards error and the all-retired wake-up
    std::condition_variable all_retired;
    std::exception_ptr error; ///< failed_chunk's exception

    // The last retire notifies under the mutex, so a waiter that found
    // the count short while holding it cannot miss the wake-up.
    void retire(std::size_t count)
    {
        if (retired.fetch_add(count, std::memory_order_acq_rel) + count ==
            chunks) {
            std::lock_guard<std::mutex> lock(mutex);
            all_retired.notify_all();
        }
    }

    /** Claim and run chunks until none is left. */
    void runChunks()
    {
        for (;;) {
            const std::size_t chunk =
                next.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= chunks)
                return;
            // Once the token fires, or a lower chunk has failed, no
            // chunk from here on runs: this one and every unclaimed
            // one retire unrun. Lower chunks were claimed already and
            // still run, so the lowest failure is always found.
            if ((cancel != nullptr && cancel->stopRequested()) ||
                chunk > failed_chunk.load(std::memory_order_acquire)) {
                const std::size_t unclaimed =
                    next.exchange(chunks, std::memory_order_relaxed);
                retire(1 + (unclaimed < chunks ? chunks - unclaimed : 0));
                return;
            }
            const std::size_t begin = chunk * grain;
            const std::size_t end = std::min(n, begin + grain);
            chunkSizeHistogram().record(static_cast<double>(end - begin));
            try {
                (*body)(begin, end);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (chunk < failed_chunk.load(std::memory_order_relaxed)) {
                    failed_chunk.store(chunk, std::memory_order_release);
                    error = std::current_exception();
                }
            }
            retire(1);
        }
    }

    /** Block until every chunk has retired. */
    void awaitRetired()
    {
        if (retired.load(std::memory_order_acquire) == chunks)
            return;
        std::unique_lock<std::mutex> lock(mutex);
        all_retired.wait(lock, [this] {
            return retired.load(std::memory_order_acquire) == chunks;
        });
    }
};

/**
 * Run [0, n) in chunks of @p grain on the caller plus up to
 * @p helpers tasks on @p pool, then rethrow the lowest failed chunk's
 * exception, if any.
 */
void
runLoop(ThreadPool& pool, std::size_t helpers, std::size_t n,
        std::size_t grain,
        const std::function<void(std::size_t, std::size_t)>& body,
        const CancellationToken* cancel)
{
    const auto state = std::make_shared<LoopState>();
    state->body = &body;
    state->cancel = cancel;
    state->n = n;
    state->grain = grain;
    state->chunks = (n + grain - 1) / grain;
    for (std::size_t h = 0; h < helpers; ++h)
        pool.submit([state] { state->runChunks(); });
    {
        const bool outer = t_inside_parallel;
        t_inside_parallel = true;
        state->runChunks();
        t_inside_parallel = outer;
    }
    state->awaitRetired();
    // Move the exception out: a late helper may hold the last reference
    // to the state, and the exception must not be destroyed there while
    // this thread's handler still reads it.
    const std::exception_ptr error = std::move(state->error);
    if (error != nullptr)
        std::rethrow_exception(error);
}

/**
 * The process-wide pool: hardware_concurrency() - 1 workers, built on
 * first use and joined by the static's destructor at exit. Only asked
 * for when a call runs on two or more threads, so the core count is
 * at least 2 here.
 */
ThreadPool&
processPool()
{
    static ThreadPool pool(hardwareThreads() - 1);
    return pool;
}

} // namespace

std::size_t
ParallelConfig::resolvedThreads() const
{
    const std::size_t cores = hardwareThreads();
    return threads == 0 ? cores : std::min(threads, cores);
}

ThreadPool::ThreadPool(std::size_t threads)
{
    TTMCAS_REQUIRE(threads >= 1, "thread pool needs at least one worker");
    _workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        _workers.emplace_back([this] { workerLoop(); });
    threadsStartedCounter().add(threads);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _task_ready.notify_all();
    for (std::thread& worker : _workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    t_inside_parallel = true;
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        _task_ready.wait(lock,
                         [this] { return _stop || !_queue.empty(); });
        if (_queue.empty()) {
            if (_stop)
                return;
            continue;
        }
        std::function<void()> task = std::move(_queue.front());
        _queue.pop_front();
        lock.unlock();
        const bool timed = obs::metricsEnabled();
        const auto busy_start = timed
                                    ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        if (timed) {
            const auto busy =
                std::chrono::steady_clock::now() - busy_start;
            busyCounter().add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    busy)
                    .count()));
            taskCounter().increment();
        }
        lock.lock();
        if (error != nullptr && _first_exception == nullptr)
            _first_exception = error;
        --_pending;
        if (_pending == 0)
            _all_done.notify_all();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    TTMCAS_REQUIRE(task != nullptr, "cannot submit an empty task");
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        TTMCAS_REQUIRE(!_stop, "cannot submit to a stopping pool");
        _queue.push_back(std::move(task));
        ++_pending;
        depth = _queue.size();
    }
    queueDepthGauge().recordMax(static_cast<double>(depth));
    _task_ready.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _all_done.wait(lock, [this] { return _pending == 0; });
    if (_first_exception != nullptr) {
        std::exception_ptr error = _first_exception;
        _first_exception = nullptr;
        std::rethrow_exception(error);
    }
}

void
ThreadPool::parallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body,
    const CancellationToken* cancel)
{
    if (n == 0)
        return;
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t chunks = (n + grain - 1) / grain;
    runLoop(*this, std::min(chunks - 1, threadCount()), n, grain, body,
            cancel);
}

void
parallelFor(const ParallelConfig& config, std::size_t n,
            const std::function<void(std::size_t, std::size_t)>& body,
            const CancellationToken* cancel)
{
    if (n == 0)
        return;
    const std::size_t grain = std::max<std::size_t>(config.grain, 1);
    const std::size_t chunks = (n + grain - 1) / grain;
    const std::size_t threads =
        std::min(config.resolvedThreads(), chunks);
    if (threads > 1 && !t_inside_parallel) {
        runLoop(processPool(), threads - 1, n, grain, body, cancel);
        return;
    }
    if (cancel == nullptr) {
        body(0, n);
        return;
    }
    // Inline path honors the token at the same chunk granularity as
    // the pooled path, so a deadline stops a serial sweep too.
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        if (cancel->stopRequested())
            return;
        const std::size_t begin = chunk * grain;
        body(begin, std::min(n, begin + grain));
    }
}

} // namespace ttmcas
