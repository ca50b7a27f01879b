#include "support/metrics.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "support/error.hh"
#include "support/json.hh"

namespace ttmcas::obs {

namespace {

constexpr std::size_t kMaxCounters = 256;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 64;
constexpr std::size_t kMaxBuckets = 16;

std::atomic<bool> g_metrics_enabled{false};

// Per-thread recording shard. Fixed-size arrays of relaxed atomics:
// the owning thread is the only writer, the snapshot thread reads
// concurrently, and there is never any reallocation to race on.
struct MetricShard
{
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<std::atomic<std::uint64_t>,
               kMaxHistograms*(kMaxBuckets + 1)>
        hist_counts{};
    std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_n{};
    std::array<std::atomic<double>, kMaxHistograms> hist_sum{};
};

struct MetricsRegistry
{
    std::mutex mutex;
    std::vector<std::string> counter_names;
    std::vector<std::string> gauge_names;
    std::array<std::atomic<double>, kMaxGauges> gauge_cells{};
    std::vector<std::string> histogram_names;
    std::vector<std::vector<double>> histogram_bounds;
    std::vector<std::shared_ptr<MetricShard>> shards;
};

MetricsRegistry&
registry()
{
    static MetricsRegistry instance;
    return instance;
}

MetricShard&
localShard()
{
    thread_local std::shared_ptr<MetricShard> shard = [] {
        auto fresh = std::make_shared<MetricShard>();
        MetricsRegistry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.shards.push_back(fresh);
        return fresh;
    }();
    return *shard;
}

std::size_t
registerName(std::vector<std::string>& names, const char* name,
             std::size_t cap, const char* what)
{
    MetricsRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return i;
    }
    TTMCAS_INVARIANT(names.size() < cap,
                     std::string("too many registered ") + what);
    names.emplace_back(name);
    return names.size() - 1;
}

} // namespace

void
setMetricsEnabled(bool enabled)
{
    g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool
metricsEnabled()
{
    return g_metrics_enabled.load(std::memory_order_relaxed);
}

Counter::Counter(const char* name)
    : _id(registerName(registry().counter_names, name, kMaxCounters,
                       "counters"))
{}

void
Counter::add(std::uint64_t n) const
{
    if (!metricsEnabled())
        return;
    localShard().counters[_id].fetch_add(n, std::memory_order_relaxed);
}

Gauge::Gauge(const char* name)
    : _id(registerName(registry().gauge_names, name, kMaxGauges,
                       "gauges"))
{}

void
Gauge::set(double value) const
{
    if (!metricsEnabled())
        return;
    registry().gauge_cells[_id].store(value, std::memory_order_relaxed);
}

void
Gauge::recordMax(double value) const
{
    if (!metricsEnabled())
        return;
    std::atomic<double>& cell = registry().gauge_cells[_id];
    double current = cell.load(std::memory_order_relaxed);
    while (value > current &&
           !cell.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
        // current was refreshed by the failed CAS; loop re-checks.
    }
}

Histogram::Histogram(const char* name, std::vector<double> bounds)
    : _id(registerName(registry().histogram_names, name, kMaxHistograms,
                       "histograms"))
{
    TTMCAS_REQUIRE(!bounds.empty() && bounds.size() <= kMaxBuckets,
                   "histogram needs 1..16 bucket bounds");
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        TTMCAS_REQUIRE(bounds[i] > bounds[i - 1],
                       "histogram bounds must be strictly increasing");
    }
    MetricsRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    if (_id >= reg.histogram_bounds.size())
        reg.histogram_bounds.resize(_id + 1);
    if (reg.histogram_bounds[_id].empty())
        reg.histogram_bounds[_id] = std::move(bounds);
    _bounds = reg.histogram_bounds[_id];
}

void
Histogram::record(double value) const
{
    if (!metricsEnabled())
        return;
    const std::vector<double>* bounds = &_bounds;
    std::size_t bucket = bounds->size(); // overflow bucket
    for (std::size_t i = 0; i < bounds->size(); ++i) {
        if (value <= (*bounds)[i]) {
            bucket = i;
            break;
        }
    }
    MetricShard& shard = localShard();
    shard.hist_counts[_id * (kMaxBuckets + 1) + bucket].fetch_add(
        1, std::memory_order_relaxed);
    shard.hist_n[_id].fetch_add(1, std::memory_order_relaxed);
    // Single writer per shard: plain load-add-store on the atomic is
    // lossless here and keeps the concurrent snapshot read race-free.
    std::atomic<double>& sum = shard.hist_sum[_id];
    sum.store(sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(const Histogram& histogram)
    : _histogram(histogram)
{
    if (!metricsEnabled())
        return;
    _active = true;
    _start = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer()
{
    if (!_active)
        return;
    const auto elapsed = std::chrono::steady_clock::now() - _start;
    _histogram.record(
        std::chrono::duration<double, std::micro>(elapsed).count());
}

std::uint64_t
MetricsSnapshot::counterValue(const std::string& name) const
{
    for (const CounterSnapshot& counter : counters) {
        if (counter.name == name)
            return counter.value;
    }
    throw ModelError("no counter named '" + name + "' in snapshot");
}

std::string
MetricsSnapshot::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("counters");
    json.beginObject();
    for (const CounterSnapshot& counter : counters)
        json.field(counter.name, counter.value);
    json.endObject();
    json.key("gauges");
    json.beginObject();
    for (const GaugeSnapshot& gauge : gauges)
        json.field(gauge.name, gauge.value);
    json.endObject();
    json.key("histograms");
    json.beginObject();
    for (const HistogramSnapshot& hist : histograms) {
        json.key(hist.name);
        json.beginObject();
        json.field("count", hist.count);
        json.field("sum", hist.sum);
        json.key("bounds");
        json.beginArray();
        for (const double bound : hist.bounds)
            json.value(bound);
        json.endArray();
        json.key("counts");
        json.beginArray();
        for (const std::uint64_t count : hist.counts)
            json.value(count);
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.endObject();
    return std::move(json).str();
}

MetricsSnapshot
snapshotMetrics()
{
    MetricsSnapshot snapshot;
    MetricsRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);

    for (std::size_t id = 0; id < reg.counter_names.size(); ++id) {
        CounterSnapshot counter;
        counter.name = reg.counter_names[id];
        counter.value = 0;
        for (const auto& shard : reg.shards) {
            counter.value +=
                shard->counters[id].load(std::memory_order_relaxed);
        }
        snapshot.counters.push_back(std::move(counter));
    }
    for (std::size_t id = 0; id < reg.gauge_names.size(); ++id) {
        GaugeSnapshot gauge;
        gauge.name = reg.gauge_names[id];
        gauge.value =
            reg.gauge_cells[id].load(std::memory_order_relaxed);
        snapshot.gauges.push_back(std::move(gauge));
    }
    for (std::size_t id = 0; id < reg.histogram_names.size(); ++id) {
        HistogramSnapshot hist;
        hist.name = reg.histogram_names[id];
        hist.bounds = id < reg.histogram_bounds.size()
                          ? reg.histogram_bounds[id]
                          : std::vector<double>{};
        hist.counts.assign(hist.bounds.size() + 1, 0);
        for (const auto& shard : reg.shards) {
            for (std::size_t b = 0; b < hist.counts.size(); ++b) {
                hist.counts[b] +=
                    shard->hist_counts[id * (kMaxBuckets + 1) + b].load(
                        std::memory_order_relaxed);
            }
            hist.count +=
                shard->hist_n[id].load(std::memory_order_relaxed);
            hist.sum +=
                shard->hist_sum[id].load(std::memory_order_relaxed);
        }
        snapshot.histograms.push_back(std::move(hist));
    }

    const auto byName = [](const auto& a, const auto& b) {
        return a.name < b.name;
    };
    std::sort(snapshot.counters.begin(), snapshot.counters.end(), byName);
    std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), byName);
    std::sort(snapshot.histograms.begin(), snapshot.histograms.end(),
              byName);
    return snapshot;
}

void
resetMetrics()
{
    MetricsRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& cell : reg.gauge_cells)
        cell.store(0.0, std::memory_order_relaxed);
    for (const auto& shard : reg.shards) {
        for (auto& slot : shard->counters)
            slot.store(0, std::memory_order_relaxed);
        for (auto& slot : shard->hist_counts)
            slot.store(0, std::memory_order_relaxed);
        for (auto& slot : shard->hist_n)
            slot.store(0, std::memory_order_relaxed);
        for (auto& slot : shard->hist_sum)
            slot.store(0.0, std::memory_order_relaxed);
    }
}

void
writeMetrics(const std::string& path)
{
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    std::ofstream out(path, std::ios::trunc);
    TTMCAS_REQUIRE(out.good(), "cannot open metrics file '" + path +
                                   "' for writing");
    out << snapshotMetrics().toJson() << '\n';
    TTMCAS_REQUIRE(out.good(),
                   "failed writing metrics file '" + path + "'");
}

} // namespace ttmcas::obs
