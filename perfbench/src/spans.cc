#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <unordered_map>

namespace perfbench {

std::int64_t
nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

std::uint64_t
SpanRecorder::newId()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _next_id++;
}

void
SpanRecorder::record(const Span& span)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(span);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

bool
SpanRecorder::writeChromeTrace(const std::string& path) const
{
    const std::vector<Span> all = spans();
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    char buffer[512];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& span = all[i];
        const std::string name = span.name;
        const std::string category = name.substr(0, name.find('.'));
        std::snprintf(buffer, sizeof buffer,
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"span_id\":%llu,\"parent_id\":%llu,"
                      "\"request_id\":%llu}}%s\n",
                      span.name, category.c_str(), span.start_ns / 1e3,
                      (span.end_ns - span.start_ns) / 1e3, span.thread,
                      static_cast<unsigned long long>(span.id),
                      static_cast<unsigned long long>(span.parent),
                      static_cast<unsigned long long>(span.request),
                      i + 1 < all.size() ? "," : "");
        out << buffer;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

std::vector<SelfTimeRow>
SpanRecorder::selfTimes() const
{
    const std::vector<Span> all = spans();
    std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& span : all)
        if (span.parent != 0)
            children[span.parent].push_back(&span);

    std::map<std::string, SelfTimeRow> rows;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const Span& span : all) {
        // Union of the child intervals, clipped to this span.
        covered.clear();
        if (const auto it = children.find(span.id); it != children.end())
            for (const Span* child : it->second)
                covered.emplace_back(std::max(child->start_ns, span.start_ns),
                                     std::min(child->end_ns, span.end_ns));
        std::sort(covered.begin(), covered.end());
        std::int64_t child_ns = 0;
        std::int64_t reach = span.start_ns;
        for (const auto& [begin, end] : covered) {
            const std::int64_t from = std::max(begin, reach);
            if (end > from) {
                child_ns += end - from;
                reach = end;
            }
        }
        SelfTimeRow& row = rows[span.name];
        row.name = span.name;
        ++row.count;
        row.total_us += (span.end_ns - span.start_ns) / 1e3;
        row.self_us += (span.end_ns - span.start_ns - child_ns) / 1e3;
    }
    std::vector<SelfTimeRow> result;
    for (auto& [_, row] : rows)
        result.push_back(std::move(row));
    return result;
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* name,
                       std::uint64_t parent, std::uint64_t request)
    : _recorder(recorder), _active(recorder.enabled())
{
    if (!_active)
        return;
    _span.name = name;
    _span.id = recorder.newId();
    _span.parent = parent;
    _span.request = request;
    _span.thread = threadIndex();
    _span.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!_active)
        return;
    _span.end_ns = nowNs();
    _recorder.record(_span);
}

} // namespace perfbench
