#ifndef TTMCAS_SERVE_SERVER_HH
#define TTMCAS_SERVE_SERVER_HH

/**
 * @file
 * The ttm_serve request engine, transport-agnostic.
 *
 * EvalServer::handleLine() maps one NDJSON request line to one reply
 * line. Transports (the Unix-socket and TCP accept loops and the
 * stdin pipe loop in examples/ttm_serve.cpp) call it from their own
 * threads, and the request is evaluated on the calling thread: the
 * server owns no threads. The method is fully thread-safe and NEVER
 * throws on client input — any line, hostile or not, produces exactly
 * one structured reply.
 *
 * Request flow:
 *
 *   parse (trust boundary, serve/request.hh)
 *     -> health/stats answered inline (they work even while draining)
 *     -> result-cache lookup (hits bypass admission entirely)
 *     -> single-flight join (serve/singleflight.hh): identical
 *        concurrent requests coalesce onto one evaluation — the first
 *        leads, the rest block on the leader's published result with
 *        their own deadlines
 *     -> admission gate (full -> "overloaded", draining -> "draining")
 *     -> a permit (at most `workers` evaluate at once), then
 *        evaluation on the calling thread under a per-request
 *        CancellationToken with a wall-clock deadline
 *     -> complete results enter the crash-safe bounded cache; partial
 *        results are returned with status "deadline_exceeded" /
 *        "cancelled"
 *
 * Graceful drain: beginDrain() latches the admission gate (every new
 * evaluation request is answered "draining"), optionally cancels
 * in-flight tokens, and awaitIdle() lets the shutdown path bound the
 * wait. Health/stats stay answerable throughout, so an operator can
 * watch a drain finish. A drain also resolves open flights: the
 * leader publishes its draining/cancelled result, so followers never
 * outlive the shutdown.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <semaphore>
#include <string>
#include <unordered_set>

#include "serve/admission.hh"
#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "serve/result_cache.hh"
#include "serve/singleflight.hh"
#include "tech/technology_db.hh"

namespace ttmcas::serve {

/** Configuration of an EvalServer. */
struct ServeOptions
{
    /**
     * Evaluations that run at once, each on the thread that called
     * EvalServer::handleLine(); more admitted requests wait. The server
     * owns no threads, so it must outlive every handleLine() call (the
     * transports' ConnectionTracker guarantees this).
     */
    std::size_t workers = 4;
    /**
     * Admission bound: requests in flight (waiting for a permit +
     * evaluating) before the server sheds with "overloaded". Must be
     * >= workers to make the extra slots act as a bounded queue.
     */
    std::size_t queue_bound = 16;
    /** Default per-request wall-clock deadline; 0 = none. */
    double default_deadline_s = 30.0;
    /** Wire-format and resource limits for request parsing. */
    ServeLimits limits;
    /** Result-cache configuration (dir = "" for memory-only). */
    ResultCacheOptions cache;
    /**
     * Chaos testing: probability that an evaluation point fails via
     * the deterministic FaultInjector (0 disables). Injected faults
     * flow through the skip-and-record path, so replies stay
     * well-formed with honest failure counts.
     */
    double fault_probability = 0.0;
    /** Seed of the deterministic fault injector. */
    std::uint64_t fault_seed = 1;
};

/** Point-in-time server statistics (the "stats" reply's source). */
struct ServerStats
{
    std::uint64_t requests = 0;      ///< lines received
    std::uint64_t ok = 0;            ///< replies with status "ok"
    std::uint64_t errors = 0;        ///< structured error replies
    std::uint64_t shed = 0;          ///< "overloaded" replies
    std::uint64_t rejected_draining = 0; ///< "draining" replies
    std::uint64_t deadline_exceeded = 0; ///< partial results (deadline)
    std::uint64_t cancelled = 0;         ///< partial results (cancel)
    std::uint64_t coalesce_leaders = 0;  ///< flights opened (led)
    std::uint64_t coalesce_followers = 0; ///< requests that coalesced
    std::size_t coalesce_in_flight = 0;  ///< currently open flights
    std::size_t in_flight = 0;       ///< currently admitted requests
    std::size_t cache_entries = 0;   ///< in-memory cache occupancy
    std::size_t cache_bytes = 0;     ///< cached payload bytes
    ResultCacheStats cache;          ///< cache operation counters
};

/** Thread-safe NDJSON request engine (see file comment). */
class EvalServer
{
  public:
    /**
     * Build the engine: creates the cache, then runs cache recovery
     * (deleting torn staging files and reloading valid entries) before
     * any request can arrive.
     */
    EvalServer(TechnologyDb db, ServeOptions options);

    /** Drains, cancelling in-flight work, and waits (bounded) for it. */
    ~EvalServer();

    EvalServer(const EvalServer&) = delete;            ///< non-copyable
    EvalServer& operator=(const EvalServer&) = delete; ///< non-copyable

    /**
     * Handle one request line; returns exactly one reply line (no
     * trailing newline). Never throws on client input.
     */
    std::string handleLine(const std::string& line);

    /**
     * Stop admitting evaluation requests (idempotent). With
     * @p cancel_in_flight every admitted request's token is cancelled,
     * whether it evaluates or still waits for a permit, so each
     * returns a partial result promptly.
     */
    void beginDrain(bool cancel_in_flight);

    /** True once beginDrain() was called. */
    bool draining() const { return _gate.draining(); }

    /** Wait until no request is in flight; true when idle. */
    bool awaitIdle(std::chrono::milliseconds timeout);

    /** Current statistics snapshot. */
    ServerStats stats() const;

    /** Entries reloaded by startup cache recovery. */
    std::size_t recoveredEntries() const { return _recovered; }

    /** The configuration this server runs with. */
    const ServeOptions& options() const { return _options; }

  private:
    std::string handleEval(const EvalRequest& request);
    /**
     * Run one evaluation end to end — admission, permit, deadline — on
     * the calling thread and return what happened as a FlightResult.
     * Never throws; every admission decision and evaluation error maps
     * to a FlightResult kind (the leader publishes it verbatim).
     */
    FlightResult runEvaluation(const EvalRequest& request);
    /**
     * Render a FlightResult as the reply for @p request. @p cache_state
     * labels an ok result ("miss", "bypass", or "coalesced");
     * @p insert_on_complete is true only on the leader path (followers
     * and no_cache requests never insert).
     */
    std::string renderFlightReply(const EvalRequest& request,
                                  const std::string& key,
                                  const FlightResult& result,
                                  const char* cache_state,
                                  bool insert_on_complete);
    /** Follower path: await the leader under the follower's deadline. */
    std::string awaitCoalesced(const EvalRequest& request,
                               const std::string& key,
                               const SingleFlight::Flight& flight);
    /** Mirror cache eviction/byte counters into the metrics registry. */
    void publishCacheMetrics();
    std::string healthReply(const std::string& id) const;
    std::string statsReply(const std::string& id) const;

    ServeOptions _options;
    Evaluator _evaluator;
    ResultCache _cache;
    AdmissionGate _gate;
    /** Caps the admitted requests that evaluate at once at workers. */
    std::counting_semaphore<> _permits;
    SingleFlight _flights;
    std::size_t _recovered = 0;

    std::atomic<std::uint64_t> _requests{0};
    std::atomic<std::uint64_t> _ok{0};
    std::atomic<std::uint64_t> _errors{0};
    std::atomic<std::uint64_t> _shed{0};
    std::atomic<std::uint64_t> _rejected_draining{0};
    std::atomic<std::uint64_t> _deadline_exceeded{0};
    std::atomic<std::uint64_t> _cancelled{0};
    std::atomic<std::uint64_t> _coalesce_leaders{0};
    std::atomic<std::uint64_t> _coalesce_followers{0};
    /** Cache evictions already mirrored to serve.cache.evict. */
    std::atomic<std::uint64_t> _evictions_observed{0};

    /** Tokens (on their threads' stacks) of admitted requests. */
    mutable std::mutex _active_mutex;
    std::unordered_set<CancellationToken*> _active;
};

} // namespace ttmcas::serve

#endif // TTMCAS_SERVE_SERVER_HH
