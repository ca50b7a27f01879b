#include "support/trace.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "support/error.hh"
#include "support/json.hh"

namespace ttmcas::obs {

namespace {

std::atomic<bool> g_tracing_enabled{false};

struct TraceEvent
{
    const char* category;
    std::string name;
    std::uint64_t start_us;
    std::uint64_t dur_us;
};

struct TraceShard
{
    std::mutex mutex;
    std::vector<TraceEvent> events;
    int tid = 0;
};

struct TraceRegistry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<TraceShard>> shards;
    int next_tid = 1;
    // Process-wide timebase so timestamps from all threads align.
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

TraceRegistry&
registry()
{
    static TraceRegistry instance;
    return instance;
}

TraceShard&
localShard()
{
    thread_local std::shared_ptr<TraceShard> shard = [] {
        auto fresh = std::make_shared<TraceShard>();
        TraceRegistry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        fresh->tid = reg.next_tid++;
        reg.shards.push_back(fresh);
        return fresh;
    }();
    return *shard;
}

std::uint64_t
microsSinceEpoch(std::chrono::steady_clock::time_point when)
{
    const auto delta = when - registry().epoch;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(delta)
            .count());
}

} // namespace

void
setTracingEnabled(bool enabled)
{
    g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

bool
tracingEnabled()
{
    return g_tracing_enabled.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* category, std::string name)
{
    if (!tracingEnabled())
        return;
    _active = true;
    _category = category;
    _name = std::move(name);
    _start = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan()
{
    if (!_active)
        return;
    const auto end = std::chrono::steady_clock::now();
    TraceEvent event;
    event.category = _category;
    event.name = std::move(_name);
    event.start_us = microsSinceEpoch(_start);
    const std::uint64_t end_us = microsSinceEpoch(end);
    event.dur_us =
        end_us > event.start_us ? end_us - event.start_us : 0;
    TraceShard& shard = localShard();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.events.push_back(std::move(event));
}

std::size_t
traceEventCount()
{
    TraceRegistry& reg = registry();
    std::lock_guard<std::mutex> reg_lock(reg.mutex);
    std::size_t count = 0;
    for (const auto& shard : reg.shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        count += shard->events.size();
    }
    return count;
}

std::string
chromeTraceJson()
{
    struct FlatEvent
    {
        int tid;
        TraceEvent event;
    };
    std::vector<FlatEvent> flat;
    {
        TraceRegistry& reg = registry();
        std::lock_guard<std::mutex> reg_lock(reg.mutex);
        for (const auto& shard : reg.shards) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            for (const TraceEvent& event : shard->events)
                flat.push_back(FlatEvent{shard->tid, event});
        }
    }
    std::sort(flat.begin(), flat.end(),
              [](const FlatEvent& a, const FlatEvent& b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.event.start_us != b.event.start_us)
                      return a.event.start_us < b.event.start_us;
                  return a.event.name < b.event.name;
              });

    JsonWriter json;
    json.beginObject();
    json.key("traceEvents");
    json.beginArray();
    for (const FlatEvent& entry : flat) {
        json.beginObject();
        json.field("name", entry.event.name);
        json.field("cat", entry.event.category);
        json.field("ph", "X");
        json.field("ts", static_cast<std::uint64_t>(entry.event.start_us));
        json.field("dur", static_cast<std::uint64_t>(entry.event.dur_us));
        json.field("pid", static_cast<std::uint64_t>(1));
        json.field("tid", static_cast<std::uint64_t>(entry.tid));
        json.endObject();
    }
    json.endArray();
    json.field("displayTimeUnit", "ms");
    json.endObject();
    return std::move(json).str();
}

void
writeChromeTrace(const std::string& path)
{
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    std::ofstream out(path, std::ios::trunc);
    TTMCAS_REQUIRE(out.good(),
                   "cannot open trace file '" + path + "' for writing");
    out << chromeTraceJson() << '\n';
    TTMCAS_REQUIRE(out.good(), "failed writing trace file '" + path + "'");
}

void
clearTrace()
{
    TraceRegistry& reg = registry();
    std::lock_guard<std::mutex> reg_lock(reg.mutex);
    for (const auto& shard : reg.shards) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->events.clear();
    }
}

} // namespace ttmcas::obs
