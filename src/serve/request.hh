#ifndef TTMCAS_SERVE_REQUEST_HH
#define TTMCAS_SERVE_REQUEST_HH

/**
 * @file
 * The ttm_serve wire format: newline-delimited JSON requests and
 * responses (docs/SERVING.md documents every schema).
 *
 * Parsing is the trust boundary of the server. Every byte a client
 * sends flows through parseRequestLine(), which must map *any* input
 * — truncated, oversized, deeply nested, control-character-ridden,
 * type-confused, or semantically invalid — to a structured
 * RequestError instead of an exception or a crash. It therefore
 * parses under JsonLimits::untrustedWire() (sized by ServeLimits),
 * validates designs with the all-at-once violations() API so a bad
 * design reports every problem in one reply, and clamps every count
 * against the server's resource limits.
 *
 * A request line looks like:
 *
 *   {"id":"r1","kind":"mc_ttm","design":{...},"market":{...},
 *    "n_chips":1e7,"seed":2023,"samples":256,"band":0.1,
 *    "deadline_s":5,"no_cache":false}
 *
 * and every reply is a single JSON object with a "status" field:
 * "ok", "error", "overloaded", "draining", "deadline_exceeded", or
 * "cancelled" (see the response builders below).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/design.hh"
#include "core/ensemble.hh"
#include "core/market.hh"
#include "opt/chiplet_explorer.hh"
#include "support/json.hh"

namespace ttmcas::serve {

/** The request types ttm_serve understands. */
enum class RequestKind : std::uint8_t
{
    McTtm = 0,     ///< Monte-Carlo TTM summary ("mc_ttm")
    McCas = 1,     ///< Monte-Carlo CAS summary ("mc_cas")
    SobolTtm = 2,  ///< Sobol sensitivity of TTM ("sobol_ttm")
    CapacitySweep = 3, ///< TTM/CAS over a capacity grid ("capacity_sweep")
    Health = 4,    ///< liveness + queue/drain state ("health")
    Stats = 5,     ///< counters and cache occupancy ("stats")
    EnsembleTtm = 6, ///< scenario-path TTM/CAS ensemble ("ensemble_ttm")
    ChipletPareto = 7, ///< TTM/CAS/cost Pareto sweep ("chiplet_pareto")
};

/** Wire name of a request kind ("mc_ttm", "health", ...). */
const char* requestKindName(RequestKind kind);

/** Resource limits enforced on every parsed request. */
struct ServeLimits
{
    /** Maximum request line length in bytes. */
    std::size_t max_request_bytes = 1 << 20;
    /** Maximum JSON string length inside a request. */
    std::size_t max_string_bytes = 1 << 16;
    /** Maximum JSON nesting depth inside a request. */
    std::size_t max_depth = 64;
    /** Maximum Monte-Carlo / Sobol-base sample count per request. */
    std::size_t max_samples = 1 << 20;
    /** Maximum die types per design. */
    std::size_t max_dies = 64;
    /** Maximum capacity-sweep grid points per request. */
    std::size_t max_grid_points = 4096;
    /** Longest per-request deadline a client may ask for (seconds). */
    double max_deadline_s = 300.0;

    /** The JSON parser limits these serve limits imply. */
    JsonLimits jsonLimits() const;
};

/** One parsed, validated evaluation request. */
struct EvalRequest
{
    /** Client-chosen correlation id, echoed verbatim in the reply. */
    std::string id;
    /** What to evaluate. */
    RequestKind kind = RequestKind::Health;
    /** The design under evaluation (validated, limits-checked). */
    ChipDesign design;
    /** Market conditions; default when the request omits them. */
    MarketConditions market;
    /** Production volume n (chips). */
    double n_chips = 1e7;
    /** RNG seed; part of the cache key. */
    std::uint64_t seed = 2023;
    /** MC sample count / Sobol base-sample count. */
    std::size_t samples = 256;
    /** Relative half-width of each uncertain input's band. */
    double band = 0.10;
    /** Capacity factors to sweep (capacity_sweep only). */
    std::vector<double> grid;
    /**
     * Disruption ensemble spec (ensemble_ttm only). When the request
     * omits "ensemble", the parser fills in
     * EnsembleSpec::defaultsFor() over the design's processes, so this
     * is always fully populated for an ensemble_ttm request.
     */
    EnsembleSpec ensemble;
    /**
     * Chiplet sweep spec (chiplet_pareto only). When the request omits
     * "chiplet", the parser fills in ChipletSweepSpec::defaultsFor()
     * over the design's processes, so this is always fully populated
     * for a chiplet_pareto request.
     */
    ChipletSweepSpec chiplet;
    /** Wall-clock budget in seconds; 0 = server default. */
    double deadline_s = 0.0;
    /** Skip the result cache for this request (still computes). */
    bool no_cache = false;
};

/** Structured parse/validation failure (maps to an "error" reply). */
struct RequestError
{
    /** Best-effort echo of the request id ("" when unparseable). */
    std::string id;
    /** Machine-readable code: "malformed-json", "invalid-request",
     *  "invalid-design", "limit-exceeded", "unknown-kind". */
    std::string code;
    /** Human-readable one-line message. */
    std::string message;
    /** All-at-once validation problems (design violations etc.). */
    std::vector<std::string> violations;
};

/** Result of parseRequestLine(): a request or a structured error. */
struct ParsedRequest
{
    bool ok = false;
    EvalRequest request;  ///< valid when ok
    RequestError error;   ///< valid when !ok

    static ParsedRequest success(EvalRequest request);
    static ParsedRequest failure(RequestError error);
};

/**
 * The sorted, deduplicated process nodes of @p design: the nodes a
 * request's default ensemble and chiplet specs cover.
 */
std::vector<std::string> designProcesses(const ChipDesign& design);

/**
 * Parse and validate one request line. Never throws on client input:
 * every malformed or limit-violating line returns a RequestError.
 * (Programming errors — e.g. null internals — still assert.)
 */
ParsedRequest parseRequestLine(const std::string& line,
                               const ServeLimits& limits);

/** @name Reply builders (single-line JSON, no trailing newline) */
///@{

/** An "error" reply from a RequestError. */
std::string errorReply(const RequestError& error);

/** An "overloaded" shed reply (admission queue full). */
std::string overloadedReply(const std::string& id,
                            std::size_t queue_depth,
                            std::size_t queue_capacity);

/** A "draining" shed reply (server is shutting down). */
std::string drainingReply(const std::string& id);

/**
 * A result reply: status is "ok", "deadline_exceeded", or
 * "cancelled"; @p cache is "hit", "miss", "bypass", or "coalesced"
 * (the result came from another request's in-flight evaluation);
 * @p payload is the pre-rendered result object (embedded verbatim, so
 * cached payloads round-trip byte-for-byte).
 */
std::string resultReply(const std::string& id, RequestKind kind,
                        const std::string& status,
                        const std::string& cache, const std::string& key,
                        const std::string& payload);

///@}

} // namespace ttmcas::serve

#endif // TTMCAS_SERVE_REQUEST_HH
