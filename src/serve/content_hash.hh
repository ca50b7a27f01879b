#ifndef TTMCAS_SERVE_CONTENT_HASH_HH
#define TTMCAS_SERVE_CONTENT_HASH_HH

/**
 * @file
 * Content-addressed cache keys for evaluation requests.
 *
 * The ttm_serve result cache (serve/result_cache.hh) is keyed by
 * *content*, not by request identity: two requests asking for the same
 * evaluation of the same design under the same market conditions with
 * the same seed and kernel parameters must map to the same key, no
 * matter which client sent them or how the JSON was formatted. The
 * canonical hash here walks every semantically relevant field in a
 * fixed order:
 *
 *  - doubles are hashed as their IEEE-754 bit patterns (bit-exact, no
 *    decimal rendering ambiguity);
 *  - optional fields hash a presence flag before the value, so
 *    "absent" and "present with value 0" differ;
 *  - every field is prefixed with a short tag, so adjacent fields
 *    cannot alias (e.g. {a=12, b=3} vs {a=1, b=23});
 *  - map-backed state (market conditions) is hashed in sorted-key
 *    order, which std::map provides.
 *
 * serve::Evaluator::cacheKey derives every key from a parsed request;
 * ttm_cli's batch modes build the same EvalRequest and print the same
 * key, so CLI runs and server cache entries correlate by construction.
 *
 * The hash is FNV-1a 64-bit — not cryptographic. Keys gate a cache of
 * deterministic recomputable results, so a collision costs a wrong
 * cache hit in a 2^-64 corner, not an integrity failure; the 16-hex
 * rendering doubles as the on-disk cache file name.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/design.hh"
#include "core/ensemble.hh"
#include "core/market.hh"
#include "opt/chiplet_explorer.hh"

namespace ttmcas::serve {

/** Streaming FNV-1a 64-bit hasher over tagged canonical fields. */
class ContentHasher
{
  public:
    /** Mix raw bytes. */
    ContentHasher& mix(std::string_view bytes);
    /** Mix a double as its IEEE-754 bit pattern. */
    ContentHasher& mix(double value);
    /** Mix an unsigned integer (little-endian byte order). */
    ContentHasher& mix(std::uint64_t value);
    /** Mix a presence flag (for optional fields). */
    ContentHasher& mix(bool present);
    /** Mix a field tag: "name=" prefix preventing field aliasing. */
    ContentHasher& tag(std::string_view name);

    /** The current 64-bit digest. */
    std::uint64_t digest() const { return _state; }

    /** The digest as 16 lowercase hex characters. */
    std::string hex() const;

  private:
    std::uint64_t _state = 0xcbf29ce484222325ULL; // FNV-1a offset basis
};

/** Canonical hash of every semantic field of @p design (16 hex). */
std::string designHash(const ChipDesign& design);

/** Canonical hash of every semantic field of @p market (16 hex). */
std::string marketHash(const MarketConditions& market);

/**
 * Kernel parameters that distinguish two evaluations of the same
 * (design, market) pair. `kernel` is the request-kind name ("mc_ttm",
 * "sobol_ttm", ...); `grid` carries sweep points (capacity factors).
 */
struct EvalKeyParams
{
    std::string kernel;
    std::uint64_t seed = 0;
    double n_chips = 0.0;
    std::uint64_t samples = 0;
    double band = 0.0;
    std::vector<double> grid;
    /**
     * Disruption-process configuration of an ensemble_ttm evaluation
     * (null otherwise). Every field of the spec — horizon, step,
     * labeling thresholds, and each node's full Markov matrix,
     * capacities, ramp, and Hawkes parameters — feeds the digest, so
     * two ensembles that differ in any regime parameter can never
     * alias to the same cache entry.
     */
    const EnsembleSpec* ensemble = nullptr;
    /**
     * Sweep configuration of a chiplet_pareto evaluation (null
     * otherwise). Every field of the spec — each sweep axis, the
     * secondary node, and the full cost-parameter block including the
     * resolved packaging-tier constants — feeds the digest, so two
     * sweeps that differ in any economic assumption can never alias
     * to the same cache entry.
     */
    const ChipletSweepSpec* chiplet = nullptr;
};

/** Mix every semantic field of @p spec into @p hasher (tagged). */
void mixEnsembleSpec(ContentHasher& hasher, const EnsembleSpec& spec);

/** Mix every semantic field of @p spec into @p hasher (tagged). */
void mixChipletSpec(ContentHasher& hasher, const ChipletSweepSpec& spec);

/**
 * The content-addressed cache key of one evaluation:
 * "<design-hash>-<market-hash>-<param-hash>" (3 x 16 hex). The
 * design and market digests stay visible in the key so operators can
 * grep a cache directory for "every entry of this design".
 */
std::string evalCacheKey(const ChipDesign& design,
                         const MarketConditions& market,
                         const EvalKeyParams& params);

} // namespace ttmcas::serve

#endif // TTMCAS_SERVE_CONTENT_HASH_HH
