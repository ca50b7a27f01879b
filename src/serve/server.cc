#include "serve/server.hh"

#include <utility>

#include "support/error.hh"
#include "support/json.hh"
#include "support/metrics.hh"

namespace ttmcas::serve {

namespace {

/** serve.* metric handles (docs/OBSERVABILITY.md lists them). */
struct ServeMetrics
{
    obs::Counter requests{"serve.requests"};
    obs::Counter ok{"serve.responses.ok"};
    obs::Counter errors{"serve.responses.error"};
    obs::Counter shed{"serve.shed"};
    obs::Counter deadline{"serve.deadline_exceeded"};
    obs::Counter cache_hit{"serve.cache.hit"};
    obs::Counter cache_miss{"serve.cache.miss"};
    obs::Counter cache_insert{"serve.cache.insert"};
    obs::Counter cache_evict{"serve.cache.evict"};
    obs::Counter coalesce_leader{"serve.coalesce.leader"};
    obs::Counter coalesce_follower{"serve.coalesce.follower"};
    obs::Gauge cache_bytes{"serve.cache.bytes"};
    obs::Gauge queue_depth{"serve.queue_depth_max"};
};

ServeMetrics&
serveMetrics()
{
    static ServeMetrics metrics;
    return metrics;
}

/** The fault injector a ServeOptions asks for (disarmed by default). */
FaultInjector
makeInjector(const ServeOptions& options)
{
    if (options.fault_probability <= 0.0)
        return FaultInjector();
    FaultInjector::Options fault;
    fault.probability = options.fault_probability;
    fault.seed = options.fault_seed;
    return FaultInjector(fault);
}

} // namespace

EvalServer::EvalServer(TechnologyDb db, ServeOptions options)
    : _options(options),
      _evaluator(std::move(db), makeInjector(options)),
      _cache(options.cache),
      _gate(options.queue_bound),
      _permits(static_cast<std::ptrdiff_t>(options.workers))
{
    TTMCAS_REQUIRE(options.workers >= 1, "server needs at least one worker");
    _recovered = _cache.recover();
    // Recovery can itself evict (a shrunk bound after restart).
    publishCacheMetrics();
}

EvalServer::~EvalServer()
{
    beginDrain(/*cancel_in_flight=*/true);
    // Bounded wait: every evaluation observes its cancelled token at
    // chunk granularity, so this converges quickly even mid-evaluation.
    awaitIdle(std::chrono::milliseconds(30000));
}

std::string
EvalServer::handleLine(const std::string& line)
{
    _requests.fetch_add(1, std::memory_order_relaxed);
    serveMetrics().requests.increment();

    const ParsedRequest parsed = parseRequestLine(line, _options.limits);
    if (!parsed.ok) {
        _errors.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().errors.increment();
        return errorReply(parsed.error);
    }
    const EvalRequest& request = parsed.request;

    // Health and stats stay answerable while draining: they are how
    // an operator watches the drain finish.
    if (request.kind == RequestKind::Health) {
        _ok.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().ok.increment();
        return healthReply(request.id);
    }
    if (request.kind == RequestKind::Stats) {
        _ok.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().ok.increment();
        return statsReply(request.id);
    }
    return handleEval(request);
}

std::string
EvalServer::handleEval(const EvalRequest& request)
{
    const std::string key = Evaluator::cacheKey(request);

    // Cache hits bypass admission entirely: they cost microseconds and
    // must keep working under flood and during drain.
    if (!request.no_cache) {
        if (std::optional<std::string> payload = _cache.lookup(key)) {
            _ok.fetch_add(1, std::memory_order_relaxed);
            serveMetrics().ok.increment();
            serveMetrics().cache_hit.increment();
            return resultReply(request.id, request.kind, "ok", "hit", key,
                               *payload);
        }
        serveMetrics().cache_miss.increment();
    }

    // A no_cache request asked for a fresh evaluation: it neither
    // leads a flight (followers must not receive a bypass result they
    // did not ask for) nor follows one.
    if (request.no_cache) {
        const FlightResult result = runEvaluation(request);
        return renderFlightReply(request, key, result, "bypass",
                                 /*insert_on_complete=*/false);
    }

    // Single-flight join BEFORE admission: N identical concurrent
    // requests must coalesce onto one evaluation deterministically,
    // which requires registering the flight before any of them can
    // race through the gate. The leader's admission decision (shed /
    // draining) is published too, so followers never hang.
    const SingleFlight::Join join = _flights.join(key);
    if (!join.leader) {
        _coalesce_followers.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().coalesce_follower.increment();
        return awaitCoalesced(request, key, *join.flight);
    }
    _coalesce_leaders.fetch_add(1, std::memory_order_relaxed);
    serveMetrics().coalesce_leader.increment();

    const FlightResult result = runEvaluation(request);
    // Publish before the cache insert: waking followers must not wait
    // on disk I/O. A request landing in the tiny publish-to-insert
    // window simply opens a fresh flight and recomputes.
    _flights.publish(join.flight, result);
    return renderFlightReply(request, key, result, "miss",
                             /*insert_on_complete=*/true);
}

FlightResult
EvalServer::runEvaluation(const EvalRequest& request)
{
    FlightResult result;

    switch (_gate.tryEnter()) {
    case AdmissionGate::Decision::Shed:
        result.kind = FlightResult::Kind::Shed;
        result.in_flight = _gate.inFlight();
        result.capacity = _gate.capacity();
        return result;
    case AdmissionGate::Decision::Draining:
        result.kind = FlightResult::Kind::Draining;
        return result;
    case AdmissionGate::Decision::Admitted: break;
    }
    AdmissionSlot slot(_gate);
    serveMetrics().queue_depth.recordMax(
        static_cast<double>(_gate.inFlight()));

    // Per-request cancellation: the client's deadline (capped by the
    // parser) or the server default, plus drain-time cancellation via
    // the active-token registry. The token is registered before the
    // permit wait, so a drain also cancels requests still waiting.
    CancellationToken token;
    const double deadline_s = request.deadline_s > 0.0
                                  ? request.deadline_s
                                  : _options.default_deadline_s;
    if (deadline_s > 0.0)
        token.setDeadlineAfter(deadline_s);
    {
        std::lock_guard<std::mutex> lock(_active_mutex);
        if (_gate.draining())
            token.requestCancel();
        _active.insert(&token);
    }

    _permits.acquire();
    try {
        result.outcome = _evaluator.evaluate(request, token);
        result.kind = FlightResult::Kind::Outcome;
    } catch (const std::exception& error) {
        // Belt and braces: evaluation isolates per-point failures, but
        // anything that does escape becomes a structured reply.
        result.kind = FlightResult::Kind::InternalError;
        result.message = error.what();
    } catch (...) {
        result.kind = FlightResult::Kind::InternalError;
        result.message = "evaluation threw a non-standard exception";
    }
    _permits.release();
    {
        std::lock_guard<std::mutex> lock(_active_mutex);
        _active.erase(&token);
    }
    slot.release();
    return result;
}

std::string
EvalServer::renderFlightReply(const EvalRequest& request,
                              const std::string& key,
                              const FlightResult& result,
                              const char* cache_state,
                              bool insert_on_complete)
{
    switch (result.kind) {
    case FlightResult::Kind::Shed:
        _shed.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().shed.increment();
        return overloadedReply(request.id, result.in_flight,
                               result.capacity);
    case FlightResult::Kind::Draining:
        _rejected_draining.fetch_add(1, std::memory_order_relaxed);
        return drainingReply(request.id);
    case FlightResult::Kind::InternalError: {
        _errors.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().errors.increment();
        RequestError error;
        error.id = request.id;
        error.code = "internal";
        error.message = result.message;
        return errorReply(error);
    }
    case FlightResult::Kind::Outcome: break;
    }
    const EvalOutcome& outcome = result.outcome;

    const char* state = cache_state;
    if (insert_on_complete) {
        if (outcome.complete) {
            _cache.insert(key, requestKindName(request.kind),
                          outcome.payload);
            serveMetrics().cache_insert.increment();
            publishCacheMetrics();
        } else {
            // Partial results never enter the cache: be honest that
            // nothing was inserted.
            state = "bypass";
        }
    }

    if (outcome.status == "ok") {
        _ok.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().ok.increment();
    } else if (outcome.status == "deadline_exceeded") {
        _deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().deadline.increment();
    } else {
        _cancelled.fetch_add(1, std::memory_order_relaxed);
    }
    return resultReply(request.id, request.kind, outcome.status, state,
                       key, outcome.payload);
}

std::string
EvalServer::awaitCoalesced(const EvalRequest& request,
                           const std::string& key,
                           const SingleFlight::Flight& flight)
{
    // The follower keeps its own deadline: it must never block longer
    // than its client asked for, even when the leader runs on.
    const double deadline_s = request.deadline_s > 0.0
                                  ? request.deadline_s
                                  : _options.default_deadline_s;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (deadline_s > 0.0)
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(deadline_s));

    const std::optional<FlightResult> result = flight.await(deadline);
    if (!result) {
        // Deadline expired while coalesced: the follower reports
        // deadline_exceeded with an honest minimal payload — NEVER the
        // leader's later result (the unit tests pin this).
        _deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        serveMetrics().deadline.increment();
        JsonWriter json;
        json.beginObject();
        json.field("kernel", requestKindName(request.kind));
        json.field("coalesced", true);
        json.field("leader_completed", false);
        json.endObject();
        return resultReply(request.id, request.kind, "deadline_exceeded",
                           "coalesced", key, json.str());
    }
    return renderFlightReply(request, key, *result, "coalesced",
                             /*insert_on_complete=*/false);
}

void
EvalServer::publishCacheMetrics()
{
    const ResultCacheStats stats = _cache.stats();
    std::uint64_t seen = _evictions_observed.load(std::memory_order_relaxed);
    while (stats.evictions > seen) {
        if (_evictions_observed.compare_exchange_weak(
                seen, stats.evictions, std::memory_order_relaxed)) {
            serveMetrics().cache_evict.add(stats.evictions - seen);
            break;
        }
    }
    serveMetrics().cache_bytes.set(static_cast<double>(_cache.bytes()));
}

void
EvalServer::beginDrain(bool cancel_in_flight)
{
    _gate.beginDrain();
    if (!cancel_in_flight)
        return;
    std::lock_guard<std::mutex> lock(_active_mutex);
    for (CancellationToken* token : _active)
        token->requestCancel();
}

bool
EvalServer::awaitIdle(std::chrono::milliseconds timeout)
{
    return _gate.awaitIdle(timeout);
}

ServerStats
EvalServer::stats() const
{
    ServerStats stats;
    stats.requests = _requests.load(std::memory_order_relaxed);
    stats.ok = _ok.load(std::memory_order_relaxed);
    stats.errors = _errors.load(std::memory_order_relaxed);
    stats.shed = _shed.load(std::memory_order_relaxed);
    stats.rejected_draining =
        _rejected_draining.load(std::memory_order_relaxed);
    stats.deadline_exceeded =
        _deadline_exceeded.load(std::memory_order_relaxed);
    stats.cancelled = _cancelled.load(std::memory_order_relaxed);
    stats.coalesce_leaders =
        _coalesce_leaders.load(std::memory_order_relaxed);
    stats.coalesce_followers =
        _coalesce_followers.load(std::memory_order_relaxed);
    stats.coalesce_in_flight = _flights.inFlight();
    stats.in_flight = _gate.inFlight();
    stats.cache_entries = _cache.size();
    stats.cache_bytes = _cache.bytes();
    stats.cache = _cache.stats();
    return stats;
}

std::string
EvalServer::healthReply(const std::string& id) const
{
    JsonWriter json;
    json.beginObject();
    json.field("id", id);
    json.field("status", "ok");
    json.field("kind", "health");
    json.field("draining", _gate.draining());
    json.field("in_flight",
               static_cast<std::uint64_t>(_gate.inFlight()));
    json.field("capacity",
               static_cast<std::uint64_t>(_gate.capacity()));
    json.field("workers",
               static_cast<std::uint64_t>(_options.workers));
    json.endObject();
    return std::move(json).str();
}

std::string
EvalServer::statsReply(const std::string& id) const
{
    const ServerStats stats = this->stats();
    JsonWriter json;
    json.beginObject();
    json.field("id", id);
    json.field("status", "ok");
    json.field("kind", "stats");
    json.field("requests", stats.requests);
    json.field("ok", stats.ok);
    json.field("errors", stats.errors);
    json.field("shed", stats.shed);
    json.field("rejected_draining", stats.rejected_draining);
    json.field("deadline_exceeded", stats.deadline_exceeded);
    json.field("cancelled", stats.cancelled);
    json.field("in_flight", static_cast<std::uint64_t>(stats.in_flight));
    json.key("coalesce");
    json.beginObject();
    json.field("leaders", stats.coalesce_leaders);
    json.field("followers", stats.coalesce_followers);
    json.field("in_flight",
               static_cast<std::uint64_t>(stats.coalesce_in_flight));
    json.endObject();
    json.key("cache");
    json.beginObject();
    json.field("entries",
               static_cast<std::uint64_t>(stats.cache_entries));
    json.field("bytes", static_cast<std::uint64_t>(stats.cache_bytes));
    json.field("hits", stats.cache.hits);
    json.field("misses", stats.cache.misses);
    json.field("insertions", stats.cache.insertions);
    json.field("evictions", stats.cache.evictions);
    json.field("evicted_bytes", stats.cache.evicted_bytes);
    json.field("recovered", stats.cache.recovered);
    json.field("torn_skipped", stats.cache.torn_skipped);
    json.field("orphans_deleted", stats.cache.orphans_deleted);
    json.endObject();
    json.endObject();
    return std::move(json).str();
}

} // namespace ttmcas::serve
