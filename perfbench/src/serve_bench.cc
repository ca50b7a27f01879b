#include "serve_bench.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check.hh"
#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "tech/default_dataset.hh"

namespace perfbench {

namespace {

namespace serve = ttmcas::serve;

/**
 * Server configuration shared by both serve workloads. The result cache
 * is memory-only, ttm_serve's default. Persisted to a virtio disk on a
 * shared 4-vCPU VM, its inserts cut serve_cold_mix throughput by ~40%
 * and tripled the run-to-run spread, so the disk write path is timed by
 * the traced run's persist probe instead (serve.result_cache.persist_us).
 */
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kQueueBound = 16;
/** Small enough that serve_cold_mix inserts evict within a run. */
constexpr std::size_t kCacheEntries = 1024;
/** Entry bound of the persist probe, so its inserts evict on disk. */
constexpr std::size_t kPersistProbeEntries = 64;
/**
 * Closed-loop connections, one client thread each. Client threads plus
 * connections stay within the usable CPUs, so on fewer than 8 CPUs the
 * loop runs fewer connections (recorded in the stamp).
 */
constexpr std::size_t kConnections = 4;
/** Set-up samples taken between two served segments. */
constexpr int kSetupsPerSegment = 3;

/** Requests in the serial replay: the stream's first ones. */
std::size_t
replayCount(Workload workload)
{
    // At most the always-traced prefix of spanSampled().
    return workload == Workload::ServeColdMix ? 240 : 8192;
}

/**
 * Client and server spans of request i get fixed ids so the server's
 * span names the client's as its parent without any shared table.
 */
constexpr std::uint64_t kClientSpanBase = std::uint64_t{1} << 48;
constexpr std::uint64_t kHandleSpanBase = std::uint64_t{2} << 48;
constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

/**
 * Requests whose client and server spans the traced run records: the
 * replay prefix (which needs them all) and every 8th request after it,
 * which keeps a hot-path trace file in the tens of MB.
 */
bool
spanSampled(std::uint64_t index)
{
    return index < 8192 || index % 8 == 0;
}

/** Stream index from a generated line's leading {"id":"r<i>". */
std::uint64_t
indexOfLine(const std::string& line)
{
    static const std::string prefix = "{\"id\":\"r";
    if (line.compare(0, prefix.size(), prefix) != 0)
        return kNoIndex;
    std::uint64_t index = 0;
    std::size_t at = prefix.size();
    for (; at < line.size() && line[at] >= '0' && line[at] <= '9'; ++at)
        index = index * 10 + static_cast<std::uint64_t>(line[at] - '0');
    return at < line.size() && line[at] == '"' ? index : kNoIndex;
}

/** One blocking loopback connection speaking NDJSON. */
class Client
{
  public:
    explicit Client(int port)
    {
        _fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_fd < 0)
            throw std::runtime_error("socket() failed");
        const int one = 1;
        ::setsockopt(_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons(static_cast<std::uint16_t>(port));
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(_fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof address) != 0) {
            ::close(_fd);
            throw std::runtime_error("connect() to the server failed");
        }
    }
    ~Client() { ::close(_fd); }

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /** Send one line and read one reply line; false on a socket error. */
    bool roundTrip(const std::string& line, std::string& reply)
    {
        if (!serve::writeAll(_fd, line + "\n"))
            return false;
        char chunk[65536];
        for (;;) {
            const std::size_t newline = _buffer.find('\n');
            if (newline != std::string::npos) {
                reply.assign(_buffer, 0, newline);
                _buffer.erase(0, newline + 1);
                return true;
            }
            const ssize_t got = ::recv(_fd, chunk, sizeof chunk, 0);
            if (got <= 0)
                return false;
            _buffer.append(chunk, static_cast<std::size_t>(got));
        }
    }

  private:
    int _fd = -1;
    std::string _buffer;
};

/**
 * One ready server: EvalServer (with its cache recovery), a TCP
 * listener on an ephemeral loopback port, its accept loop, and the
 * client connections. Construction is what setup_s times.
 */
class ServeHarness
{
  public:
    ServeHarness(SpanRecorder& spans, std::size_t connections)
        : _spans(spans)
    {
        serve::ServeOptions options;
        options.workers = kWorkers;
        options.queue_bound = kQueueBound;
        options.cache.max_entries = kCacheEntries;
        _server = std::make_unique<serve::EvalServer>(
            ttmcas::defaultTechnologyDb(), options);

        std::string error;
        _listener = serve::Listener::listenTcp("127.0.0.1:0", error);
        if (!_listener.valid())
            throw std::runtime_error("listen failed: " + error);
        const std::string& endpoint = _listener.endpoint();
        const int port = std::stoi(endpoint.substr(endpoint.rfind(':') + 1));

        _handler = [this](const std::string& line) { return handle(line); };
        _loop.max_connections = connections;
        _loop.limits.poll_interval_ms = 10;
        _accept = std::thread([this] {
            serve::runAcceptLoop(_listener, _handler, _stop, _loop,
                                 _tracker);
        });
        for (std::size_t i = 0; i < connections; ++i)
            _clients.push_back(std::make_unique<Client>(port));
    }

    ~ServeHarness()
    {
        _clients.clear(); // EOF ends each connection thread
        _stop.requestCancel();
        _accept.join();
        _tracker.awaitZero(std::chrono::milliseconds(30000));
        _server.reset();
    }

    ServeHarness(const ServeHarness&) = delete;
    ServeHarness& operator=(const ServeHarness&) = delete;

    serve::EvalServer& server() { return *_server; }
    Client& client(std::size_t i) { return *_clients[i]; }
    std::size_t connections() const { return _clients.size(); }

  private:
    /** The transport's line handler: EvalServer::handleLine, traced. */
    std::string handle(const std::string& line)
    {
        const std::uint64_t index = indexOfLine(line);
        if (!_spans.enabled() || index == kNoIndex || !spanSampled(index))
            return _server->handleLine(line);
        Span span;
        span.name = "serve.server.handle";
        span.thread = threadIndex();
        span.start_ns = nowNs();
        std::string reply = _server->handleLine(line);
        span.end_ns = nowNs();
        span.id = kHandleSpanBase + index;
        span.parent = kClientSpanBase + index;
        span.request = index + 1;
        _spans.record(span);
        return reply;
    }

    SpanRecorder& _spans;
    std::unique_ptr<serve::EvalServer> _server;
    serve::Listener _listener;
    serve::LineHandler _handler;
    serve::AcceptLoopOptions _loop;
    ttmcas::CancellationToken _stop;
    serve::ConnectionTracker _tracker;
    std::vector<std::unique_ptr<Client>> _clients;
    std::thread _accept;
};

/**
 * The measured window is served in this many equal segments. Between
 * segments the clients pause while the run takes its set-up and replay
 * samples, so every metric samples the whole run; each end-to-end
 * metric is the median over segments (or over the samples taken
 * between them), so host contention in part of a run moves it less.
 */
constexpr std::size_t kSegments = 10;

/** What one served segment saw. */
struct Segment
{
    /** One float per request keeps memory nearly throughput-free. */
    std::vector<float> rtt_ms;
    std::uint64_t ok = 0;
    std::uint64_t points = 0;
    /** From the segment's start to its last reply. */
    double elapsed_s = 0.0;
};

/** What a measured window saw, segment by segment. */
struct Window
{
    std::vector<Segment> segments;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
    /** Served replies of indices below the replay count. */
    std::map<std::uint64_t, std::string> kept;
    /** Indices below the replay count served as a fresh "miss". */
    std::set<std::uint64_t> kept_misses;

    double okPerSecond() const
    {
        double ok = 0.0, seconds = 0.0;
        for (const Segment& segment : segments) {
            ok += static_cast<double>(segment.ok);
            seconds += segment.elapsed_s;
        }
        return seconds > 0.0 ? ok / seconds : 0.0;
    }
};

/**
 * Closed loop: each connection sends its next request only after the
 * previous reply arrived, until @p seconds have passed. Indices come
 * from one shared counter, so the stream is fixed by the seed alone.
 */
void
serveSegment(ServeHarness& harness, const RequestGenerator& generator,
             std::atomic<std::uint64_t>& next, double seconds,
             SpanRecorder& spans, std::uint64_t keep_below, Window& window)
{
    struct PerClient
    {
        Segment segment;
        std::uint64_t attempted = 0;
        std::vector<std::string> failures;
        std::map<std::uint64_t, std::string> kept;
        std::set<std::uint64_t> kept_misses;
        std::int64_t last_end_ns = 0;
    };
    std::vector<PerClient> results(harness.connections());
    const std::int64_t begin_ns = nowNs();
    const auto deadline_ns =
        begin_ns + static_cast<std::int64_t>(seconds * 1e9);

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < harness.connections(); ++c) {
        threads.emplace_back([&, c] {
            PerClient& mine = results[c];
            Client& client = harness.client(c);
            std::string reply;
            while (nowNs() < deadline_ns) {
                const std::uint64_t index = next.fetch_add(1);
                const GeneratedRequest request = generator.request(index);
                Span span;
                span.name = "client.request";
                span.id = kClientSpanBase + index;
                span.request = index + 1;
                span.thread = threadIndex();
                span.start_ns = nowNs();
                const bool delivered = client.roundTrip(request.line, reply);
                span.end_ns = nowNs();
                mine.last_end_ns = span.end_ns;
                if (spans.enabled() && spanSampled(index))
                    spans.record(span);

                ++mine.attempted;
                mine.segment.rtt_ms.push_back(
                    static_cast<float>((span.end_ns - span.start_ns) / 1e6));
                if (!delivered) {
                    mine.failures.push_back(request.id +
                                            ": connection error");
                    break;
                }
                const ReplyCheck check = checkReply(reply, request);
                if (!check.ok) {
                    mine.failures.push_back(check.why);
                    continue;
                }
                ++mine.segment.ok;
                mine.segment.points += check.points;
                if (index < keep_below) {
                    mine.kept.emplace(index, reply);
                    if (check.cache == "miss" && !request.hot)
                        mine.kept_misses.insert(index);
                }
            }
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    Segment merged;
    std::int64_t end_ns = begin_ns + 1;
    for (PerClient& mine : results) {
        merged.rtt_ms.insert(merged.rtt_ms.end(), mine.segment.rtt_ms.begin(),
                             mine.segment.rtt_ms.end());
        merged.ok += mine.segment.ok;
        merged.points += mine.segment.points;
        end_ns = std::max(end_ns, mine.last_end_ns);
        window.attempted += mine.attempted;
        window.failures.insert(window.failures.end(), mine.failures.begin(),
                               mine.failures.end());
        window.kept.merge(mine.kept);
        window.kept_misses.merge(mine.kept_misses);
    }
    merged.elapsed_s = (end_ns - begin_ns) / 1e9;
    window.segments.push_back(std::move(merged));
}

/** Medians over the segments of a measured window. */
struct WindowSummary
{
    double throughput_rps = 0.0;
    double points_per_s = 0.0;
    double p50_ms = 0.0;
    double tail_ms = 0.0;
    /** Smallest segment's sample count and its tail percentile. */
    std::size_t min_count = 0;
    double tail_percentile = 100.0;
};

WindowSummary
summarizeWindow(const Window& window)
{
    std::vector<double> rps, pps, p50, tail;
    WindowSummary summary;
    summary.min_count = ~std::size_t{0};
    for (const Segment& segment : window.segments) {
        rps.push_back(segment.ok / segment.elapsed_s);
        pps.push_back(segment.points / segment.elapsed_s);
        const TimingSummary latency = summarize(
            std::vector<double>(segment.rtt_ms.begin(), segment.rtt_ms.end()));
        p50.push_back(latency.median);
        tail.push_back(latency.tail);
        if (latency.count < summary.min_count) {
            summary.min_count = latency.count;
            summary.tail_percentile = latency.tail_percentile;
        }
    }
    summary.throughput_rps = median(rps);
    summary.points_per_s = median(pps);
    summary.p50_ms = median(p50);
    summary.tail_ms = median(tail);
    return summary;
}

/** Load the hot set through the clients (part of set-up). */
void
warmHotSet(ServeHarness& harness, const RequestGenerator& generator,
           Report& report)
{
    const auto& hot = generator.hotSet();
    std::vector<std::vector<std::string>> failures(harness.connections());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < harness.connections(); ++c) {
        threads.emplace_back([&, c] {
            std::string reply;
            for (std::size_t i = c; i < hot.size();
                 i += harness.connections()) {
                if (!harness.client(c).roundTrip(hot[i].line, reply)) {
                    failures[c].push_back(hot[i].id + ": connection error");
                    return;
                }
                const ReplyCheck check = checkReply(reply, hot[i]);
                if (!check.ok)
                    failures[c].push_back("warm-up " + check.why);
            }
        });
    }
    for (std::thread& thread : threads)
        thread.join();
    report.attempt(hot.size());
    for (const auto& list : failures)
        for (const std::string& why : list)
            report.fail(why);
}

void
resetDir(const std::string& dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

/**
 * The offline replay ("study"): the stream's first requests through
 * parse -> key -> evaluate -> render, with no server, transport or
 * cache in the way, run as a batch on kWorkers threads (the server's
 * worker count) that take requests from a shared counter. A single
 * thread's speed swung too much on a shared host for a serial pass to
 * be a steady metric; with dynamic hand-out a slow CPU just takes fewer
 * requests. The first pass checks every payload and key against the
 * served reply; study_s is the median pass time.
 */
class StudyReplay
{
  public:
    StudyReplay(const RequestGenerator& generator, std::uint64_t count,
                Report& report)
        : _generator(generator), _count(count), _report(report),
          _evaluator(ttmcas::defaultTechnologyDb())
    {}

    /** One timed pass over the replay set, taken from @p window. */
    void pass(const Window& window)
    {
        const bool first = _pass_s.empty();
        if (first)
            for (std::uint64_t index = 0; index < _count; ++index)
                if (window.kept.count(index))
                    _items.push_back(_generator.request(index));

        std::vector<std::string> payloads(_items.size());
        std::vector<std::string> keys(_items.size());
        std::atomic<std::size_t> next{0};
        const auto work = [&] {
            const serve::ServeLimits limits;
            for (std::size_t i = next.fetch_add(1); i < _items.size();
                 i = next.fetch_add(1)) {
                const serve::ParsedRequest parsed =
                    serve::parseRequestLine(_items[i].line, limits);
                std::string key = serve::Evaluator::cacheKey(parsed.request);
                const ttmcas::CancellationToken token;
                serve::EvalOutcome outcome =
                    parsed.ok ? _evaluator.evaluate(parsed.request, token)
                              : serve::EvalOutcome{};
                (void)serve::resultReply(parsed.request.id,
                                         parsed.request.kind, outcome.status,
                                         "miss", key, outcome.payload);
                if (first) {
                    payloads[i] = outcome.complete ? std::move(outcome.payload)
                                                   : std::string();
                    keys[i] = std::move(key);
                }
            }
        };
        const std::int64_t begin = nowNs();
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kWorkers; ++t)
            threads.emplace_back(work);
        for (std::thread& thread : threads)
            thread.join();
        _pass_s.push_back((nowNs() - begin) / 1e9);
        if (first)
            check(window, payloads, keys);
    }

    double medianSeconds() const { return median(_pass_s); }
    std::size_t passes() const { return _pass_s.size(); }
    const std::vector<GeneratedRequest>& items() const { return _items; }

  private:
    void check(const Window& window, const std::vector<std::string>& payloads,
               const std::vector<std::string>& keys)
    {
        for (std::size_t i = 0; i < _items.size(); ++i) {
            const GeneratedRequest& request = _items[i];
            _report.attempt();
            const std::string& served = window.kept.at(request.index);
            if (payloads[i].empty() || payloads[i] != resultPayload(served))
                _report.fail(request.id +
                             ": replayed payload differs from the served "
                             "result");
            else if (served.find("\"key\":\"" + keys[i] + "\"") ==
                     std::string::npos)
                _report.fail(request.id + ": served key differs from "
                             "Evaluator::cacheKey");
        }
    }

    const RequestGenerator& _generator;
    std::uint64_t _count;
    Report& _report;
    const serve::Evaluator _evaluator;
    std::vector<GeneratedRequest> _items;
    std::vector<double> _pass_s;
};

/** Span names of the stage replay, per evaluator kind. */
const char*
evalSpanName(const std::string& kind)
{
    static const std::map<std::string, const char*> names = {
        {"mc_ttm", "serve.evaluator.eval.mc_ttm"},
        {"mc_cas", "serve.evaluator.eval.mc_cas"},
        {"sobol_ttm", "serve.evaluator.eval.sobol_ttm"},
        {"capacity_sweep", "serve.evaluator.eval.capacity_sweep"},
        {"ensemble_ttm", "serve.evaluator.eval.ensemble_ttm"},
        {"chiplet_pareto", "serve.evaluator.eval.chiplet_pareto"},
    };
    return names.at(kind);
}

/**
 * Traced, serial replay of each stage of the request path, against a
 * memory cache configured like the server's. Each fresh payload is
 * also inserted into a disk-backed cache with a small bound: the
 * persist probe times what a --cache-dir deployment pays per miss,
 * eviction on disk included.
 */
void
stageReplay(const std::vector<GeneratedRequest>& items, const std::string& dir,
            SpanRecorder& spans)
{
    serve::ResultCacheOptions cache_options;
    cache_options.max_entries = kCacheEntries;
    serve::ResultCache cache(cache_options);
    resetDir(dir);
    serve::ResultCacheOptions persist_options;
    persist_options.dir = dir;
    persist_options.max_entries = kPersistProbeEntries;
    serve::ResultCache persisted(persist_options);
    persisted.recover();
    const serve::Evaluator evaluator(ttmcas::defaultTechnologyDb());
    const serve::ServeLimits limits;
    for (const GeneratedRequest& item : items) {
        const std::uint64_t request = item.index + 1;
        const ScopedSpan root(spans, "serve.replay", 0, request);
        serve::ParsedRequest parsed;
        {
            const ScopedSpan span(spans, "serve.request.parse", root.id(),
                                  request);
            parsed = serve::parseRequestLine(item.line, limits);
        }
        std::string key;
        {
            const ScopedSpan span(spans, "serve.content_hash.key", root.id(),
                                  request);
            key = serve::Evaluator::cacheKey(parsed.request);
        }
        bool hit = false;
        {
            const ScopedSpan span(spans, "serve.result_cache.lookup",
                                  root.id(), request);
            hit = cache.lookup(key).has_value();
        }
        serve::EvalOutcome outcome;
        {
            const ScopedSpan span(spans, evalSpanName(item.kind),
                                  root.id(), request);
            ttmcas::CancellationToken token;
            outcome = evaluator.evaluate(parsed.request, token);
        }
        {
            const ScopedSpan span(spans, "serve.result_cache.insert",
                                  root.id(), request);
            cache.insert(key, item.kind, outcome.payload);
        }
        {
            const ScopedSpan span(spans, "serve.request.render", root.id(),
                                  request);
            (void)serve::resultReply(parsed.request.id, parsed.request.kind,
                                     outcome.status, "miss", key,
                                     outcome.payload);
        }
        if (!hit) {
            // Outside the request's stage sum: a probe, not a stage.
            const ScopedSpan span(spans, "serve.result_cache.persist", 0,
                                  request);
            persisted.insert(key, item.kind, outcome.payload);
        }
    }
}

/** Per-layer serve metrics: name and unit, in report order. */
const std::vector<std::pair<std::string, std::string>>&
serveLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> metrics = {
        {"serve.server.handle_us", "us"},
        {"serve.server.handle_miss_us", "us"},
        {"serve.transport.rtt_overhead_us", "us"},
        {"serve.request.parse_us", "us"},
        {"serve.content_hash.key_us", "us"},
        {"serve.result_cache.lookup_us", "us"},
        {"serve.result_cache.insert_us", "us"},
        {"serve.result_cache.persist_us", "us"},
        {"serve.request.render_us", "us"},
        {"serve.server.dispatch_us", "us"},
        {"serve.evaluator.eval_us.mc_ttm", "us"},
        {"serve.evaluator.eval_us.mc_cas", "us"},
        {"serve.evaluator.eval_us.sobol_ttm", "us"},
        {"serve.evaluator.eval_us.capacity_sweep", "us"},
        {"serve.evaluator.eval_us.ensemble_ttm", "us"},
        {"serve.evaluator.eval_us.chiplet_pareto", "us"},
        {"serve.result_cache.hit_ratio", "ratio"},
        {"serve.result_cache.lookups", "count"},
        {"serve.result_cache.evictions", "count"},
        {"serve.singleflight.followers", "count"},
        {"serve.admission.shed", "count"},
    };
    return metrics;
}

/** Derive the per-layer serve metrics from the recorded spans. */
std::map<std::string, double>
layerValues(const std::vector<Span>& all, const Window& traced,
            const std::vector<GeneratedRequest>& items, Report& report)
{
    std::map<std::string, std::vector<double>> durations_us;
    std::map<std::uint64_t, double> handle_us;
    std::map<std::uint64_t, double> client_us;
    std::map<std::uint64_t, std::map<std::string, double>> stages;
    for (const Span& span : all) {
        const double us = (span.end_ns - span.start_ns) / 1e3;
        const std::string name = span.name;
        durations_us[name].push_back(us);
        if (name == "serve.server.handle" && span.request != 0)
            handle_us[span.request] = us;
        else if (name == "client.request")
            client_us[span.request] = us;
        else if (name != "serve.replay" &&
                 name != "serve.result_cache.persist" &&
                 name.rfind("serve.", 0) == 0)
            stages[span.request][name] = us;
    }

    std::map<std::string, double> values;
    const auto stage = [&](const char* metric, const char* span) {
        values[metric] = median(durations_us[span]);
    };
    stage("serve.server.handle_us", "serve.server.handle");
    stage("serve.request.parse_us", "serve.request.parse");
    stage("serve.content_hash.key_us", "serve.content_hash.key");
    stage("serve.result_cache.lookup_us", "serve.result_cache.lookup");
    stage("serve.result_cache.insert_us", "serve.result_cache.insert");
    stage("serve.result_cache.persist_us", "serve.result_cache.persist");
    stage("serve.request.render_us", "serve.request.render");
    for (const char* kind : {"mc_ttm", "mc_cas", "sobol_ttm",
                             "capacity_sweep", "ensemble_ttm",
                             "chiplet_pareto"})
        values[std::string("serve.evaluator.eval_us.") + kind] =
            median(durations_us[evalSpanName(kind)]);

    std::vector<double> overhead;
    for (const auto& [request, rtt] : client_us)
        if (const auto it = handle_us.find(request); it != handle_us.end())
            overhead.push_back(rtt - it->second);
    values["serve.transport.rtt_overhead_us"] = median(overhead);

    // Dispatch: a served miss's handler time minus its stage sum.
    std::vector<double> dispatch;
    std::map<std::string, std::vector<double>> miss_stage;
    for (const GeneratedRequest& item : items) {
        const std::uint64_t request = item.index + 1;
        const auto handled = handle_us.find(request);
        if (!traced.kept_misses.count(item.index) ||
            handled == handle_us.end())
            continue;
        double sum = 0.0;
        for (const auto& [name, us] : stages[request]) {
            sum += us;
            miss_stage[name].push_back(us);
        }
        dispatch.push_back(handled->second - sum);
        miss_stage["serve.server.handle"].push_back(handled->second);
    }
    values["serve.server.dispatch_us"] = median(dispatch);
    values["serve.server.handle_miss_us"] =
        median(miss_stage["serve.server.handle"]);

    std::string breakdown = "miss breakdown (median us over " +
                            std::to_string(dispatch.size()) +
                            " served misses):";
    for (const auto& [name, list] : miss_stage)
        breakdown += " " + name + "=" + fullDigits(median(list)).substr(0, 7);
    breakdown += " dispatch=" + fullDigits(median(dispatch)).substr(0, 7);
    report.note(breakdown);
    return values;
}

} // namespace

void
runServeWorkload(const RunOptions& options, Report& report,
                 SpanRecorder& spans, EnvStamp& stamp)
{
    const RequestGenerator generator(options.workload, options.seed);
    const std::size_t connections =
        std::max<std::size_t>(1, std::min(kConnections, usableCpus() / 2));
    stamp.client_threads = connections;
    stamp.connections = connections;
    const bool hot = options.workload == Workload::ServeHotSmall;
    const bool traced = spans.enabled();
    spans.setEnabled(false);

    // One set-up: build, bind, connect and (hot) warm a server.
    std::vector<double> setup_s;
    const auto setUp = [&] {
        const std::int64_t begin = nowNs();
        auto harness = std::make_unique<ServeHarness>(spans, connections);
        if (hot)
            warmHotSet(*harness, generator, report);
        setup_s.push_back((nowNs() - begin) / 1e9);
        return harness;
    };
    std::unique_ptr<ServeHarness> harness = setUp();
    const serve::ServerStats before = harness->server().stats();

    const std::size_t keep = replayCount(options.workload);
    StudyReplay replay(generator, keep, report);
    std::atomic<std::uint64_t> next{0};
    const double segment_s = options.seconds / kSegments;
    Window measured;
    Window traced_window;
    if (traced) {
        // Traced half first, so the replayed prefix has server spans;
        // then an untraced half for the tracing overhead.
        spans.setEnabled(true);
        for (std::size_t k = 0; k < kSegments / 2; ++k)
            serveSegment(*harness, generator, next, segment_s, spans, keep,
                         traced_window);
        spans.setEnabled(false);
        for (std::size_t k = 0; k < kSegments / 2; ++k)
            serveSegment(*harness, generator, next, segment_s, spans, 0,
                         measured);
        replay.pass(traced_window);
    } else {
        for (std::size_t k = 0; k < kSegments; ++k) {
            serveSegment(*harness, generator, next, segment_s, spans, keep,
                         measured);
            replay.pass(measured);
            for (int i = 0; i < kSetupsPerSegment; ++i)
                setUp(); // a throwaway server, torn down untimed
        }
    }
    const serve::ServerStats after = harness->server().stats();
    harness.reset();

    for (const Window* window : {&traced_window, &measured}) {
        report.attempt(window->attempted);
        for (const std::string& why : window->failures)
            report.fail(why);
    }

    if (!traced) {
        const WindowSummary summary = summarizeWindow(measured);
        report.add("setup_s", median(setup_s), "s");
        report.add("throughput_rps", summary.throughput_rps, "1/s");
        report.add("latency_p50_ms", summary.p50_ms, "ms");
        report.add("latency_p99_ms", summary.tail_ms, "ms");
        report.add("points_per_s", summary.points_per_s, "1/s");
        report.add("study_s", replay.medianSeconds(), "s");
        report.note("medians over " + std::to_string(kSegments) +
                    " segments of " + std::to_string(measured.attempted) +
                    " requests; tail percentile p" +
                    fullDigits(summary.tail_percentile) +
                    " (smallest segment " +
                    std::to_string(summary.min_count) + " requests)");
        report.note("setup samples " + std::to_string(setup_s.size()) +
                    ", study passes " + std::to_string(replay.passes()) +
                    " over " + std::to_string(replay.items().size()) +
                    " requests");
        return;
    }

    spans.setEnabled(true);
    stageReplay(replay.items(), options.work_dir + "/replay-cache", spans);
    std::map<std::string, double> values =
        layerValues(spans.spans(), traced_window, replay.items(), report);
    const std::uint64_t hits = after.cache.hits - before.cache.hits;
    const std::uint64_t lookups =
        hits + after.cache.misses - before.cache.misses;
    values["serve.result_cache.hit_ratio"] =
        lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    values["serve.result_cache.lookups"] = static_cast<double>(lookups);
    values["serve.result_cache.evictions"] =
        static_cast<double>(after.cache.evictions - before.cache.evictions);
    values["serve.singleflight.followers"] = static_cast<double>(
        after.coalesce_followers - before.coalesce_followers);
    values["serve.admission.shed"] =
        static_cast<double>(after.shed - before.shed);
    for (const auto& [name, unit] : serveLayerMetrics())
        report.add(name, values[name], unit);

    const double traced_rps = traced_window.okPerSecond();
    const double untraced_rps = measured.okPerSecond();
    report.add("trace_overhead_frac", 1.0 - traced_rps / untraced_rps,
               "ratio");
    report.note("traced " + fullDigits(traced_rps) + " req/s vs untraced " +
                fullDigits(untraced_rps) + " req/s");
}

void
addUnexercisedServeMetrics(Report& report)
{
    for (const auto& [name, unit] : serveLayerMetrics())
        report.add(name, 0.0, unit);
}

} // namespace perfbench
