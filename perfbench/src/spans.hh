#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * A span is one timed call into a layer: name, start, end, the span
 * that caused it, and the request it belongs to. Spans are kept in
 * memory while the workload runs and written out once at exit as a
 * Chrome trace_event file (loadable in Perfetto), plus a per-layer
 * self-time table. A disabled recorder records nothing and reads no
 * clock, so the untraced run pays only a branch per span site.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the first call. */
std::int64_t nowNs();

struct Span
{
    /** Static string: the layer boundary, e.g. "serve.request.parse". */
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    /** Id of the span that caused this one; 0 for a root span. */
    std::uint64_t parent = 0;
    /** Request id shared by every span of one request; 0 = none. */
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
};

/** Self time of one span name, summed over its spans. */
struct SelfTimeRow
{
    std::string name;
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : _enabled(enabled) {}

    bool enabled() const { return _enabled.load(std::memory_order_relaxed); }
    void setEnabled(bool enabled) { _enabled.store(enabled); }

    /** A fresh span id, unique within this recorder. */
    std::uint64_t newId();

    void record(const Span& span);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write a Chrome trace_event JSON file; false on I/O failure. */
    bool writeChromeTrace(const std::string& path) const;

    /**
     * Per-name self time: each span's duration minus the part of its
     * interval covered by its child spans, summed by name.
     */
    std::vector<SelfTimeRow> selfTimes() const;

  private:
    std::atomic<bool> _enabled;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
    std::uint64_t _next_id = 1;
};

/** Records one span over its lifetime when the recorder is enabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder& recorder, const char* name,
               std::uint64_t parent = 0, std::uint64_t request = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** This span's id (0 when the recorder is disabled). */
    std::uint64_t id() const { return _span.id; }

  private:
    SpanRecorder& _recorder;
    bool _active;
    Span _span;
};

/** Small per-thread index used as the trace's tid. */
std::uint32_t threadIndex();

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
