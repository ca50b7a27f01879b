#ifndef TTMCAS_STATS_DISRUPTION_HH
#define TTMCAS_STATS_DISRUPTION_HH

/**
 * @file
 * Seeded stochastic disruption processes for supply-chain scenarios.
 *
 * The paper's scenarios (core/scenario.hh) are static shocks: one
 * capacity cut, one queue surge, frozen in time. The related work
 * models what disruptions actually look like — capacity drifting
 * between regimes over months (Kanungo et al., "Chip Architecture and
 * Uncertainties in Semiconductor Supply and Demand") and *clustered*
 * disruption arrivals where one incident raises the odds of the next
 * (Feng et al., "Modeling Supply Chain Interaction and Disruption").
 * This file provides both as seeded processes over one supply node:
 *
 *  - MarkovRegimeParams: a discrete-time Markov chain over three
 *    capacity regimes (nominal / constrained / outage), stepped every
 *    step_weeks, with a linear recovery ramp when a node climbs out
 *    of an outage (the Renesas-fire shape CapacityTimeline::ramp
 *    models statically).
 *  - HawkesParams: a self-exciting (Hawkes) point process of
 *    disruption shocks with conditional intensity
 *        lambda(t) = mu + sum_{t_i < t} alpha * beta * exp(-beta (t - t_i)),
 *    sampled by its cluster (branching) representation: Poisson(mu H)
 *    immigrant shocks, each shock spawning Poisson(alpha) children at
 *    Exp(beta) delays. The branching ratio alpha must be < 1 so
 *    cascades terminate. Each shock multiplies the node's capacity by
 *    a depth drawn uniformly from [shock_depth_min, shock_depth_max]
 *    for shock_weeks; overlapping shocks compound multiplicatively.
 *
 * Determinism contract (the property suite pins it): a sampled path
 * is a *pure function of (params, seed, path_index)*. Path seeds are
 * derived with derivePathSeed() — a splitmix64 mix of (seed,
 * path_index) — so any path of an ensemble can be drawn on any thread
 * in any order and come out bitwise identical. Within one path all
 * randomness comes from a single Rng consumed in a fixed documented
 * order (regime chain, then immigrants, then the cascade queue
 * front-to-back), never from a shared generator.
 *
 * docs/SCENARIOS.md documents the process definitions, the JSON
 * schema (core/ensemble_io.hh) and the seeding contract end to end.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stats/rng.hh"

namespace ttmcas {

/** Capacity regime of one supply node. */
enum class Regime : std::uint8_t
{
    Nominal = 0,     ///< full contracted capacity
    Constrained = 1, ///< rationed capacity (drought, allocation)
    Outage = 2,      ///< line down (fire, quake, export stop)
};

/** Number of Regime values. */
inline constexpr std::size_t kRegimeCount = 3;

/** Stable display name ("nominal", "constrained", "outage"). */
const char* regimeName(Regime regime);

/** 3x3 row-stochastic per-step transition matrix. */
using RegimeMatrix =
    std::array<std::array<double, kRegimeCount>, kRegimeCount>;

/** Markov regime switching over one node's capacity. */
struct MarkovRegimeParams
{
    /**
     * Per-step transition probabilities; row = current regime,
     * column = next regime. Rows must each sum to 1 (validated).
     */
    RegimeMatrix transition{{{1.0, 0.0, 0.0},
                             {0.0, 1.0, 0.0},
                             {0.0, 0.0, 1.0}}};
    /** Capacity factor of each regime (nominal must be > 0). */
    std::array<double, kRegimeCount> capacity{1.0, 0.6, 0.0};
    /** Weeks to ramp back to the target factor after an outage. */
    double recovery_ramp_weeks = 8.0;
    /** Ramp discretization (equal sub-phases, like CapacityTimeline::ramp). */
    int recovery_ramp_steps = 4;
    /** Regime in effect at week 0. */
    Regime initial = Regime::Nominal;

    /**
     * A moderately disrupted node: sticky nominal regime, occasional
     * constraint episodes, rare outages with an 8-week ramp back.
     */
    static MarkovRegimeParams defaults();

    /** All-at-once validation (empty = valid). */
    std::vector<std::string> violations() const;

    /**
     * Stationary distribution of the chain (power iteration).
     * Requires a valid transition matrix.
     */
    std::array<double, kRegimeCount> stationary() const;
};

/** Self-exciting clustered disruption arrivals for one node. */
struct HawkesParams
{
    /** Baseline shock intensity in events/week (0 disables shocks). */
    double mu = 0.0;
    /** Branching ratio: mean children per shock; must be < 1. */
    double alpha = 0.5;
    /** Excitation decay rate in 1/weeks; must be > 0. */
    double beta = 0.7;
    /** Capacity multiplier while a shock is active, drawn uniformly
     * from [shock_depth_min, shock_depth_max] (in (0, 1]). */
    double shock_depth_min = 0.4;
    double shock_depth_max = 0.8;
    /** Duration of one shock in weeks. */
    double shock_weeks = 2.0;

    /** A mild clustered-shock process (one immigrant every ~50 weeks). */
    static HawkesParams defaults();

    /** All-at-once validation (empty = valid). */
    std::vector<std::string> violations() const;
};

/** The full disruption process of one supply node. */
struct DisruptionProcessParams
{
    MarkovRegimeParams markov;
    HawkesParams hawkes;

    /** All-at-once validation (markov + hawkes, prefixed). */
    std::vector<std::string> violations() const;
};

/** One regime segment of a sampled path (left-closed, like phases). */
struct RegimeSegment
{
    double start_week = 0.0;
    Regime regime = Regime::Nominal;

    bool operator==(const RegimeSegment&) const = default;
};

/** One sampled disruption shock. */
struct DisruptionEvent
{
    double time_week = 0.0; ///< arrival time in [0, horizon)
    double depth = 1.0;     ///< capacity multiplier while active
    double duration_weeks = 0.0;

    bool operator==(const DisruptionEvent&) const = default;
};

/** One piecewise-constant capacity phase of a composed path. */
struct CapacityPhase
{
    double start_week = 0.0;
    double factor = 1.0;

    bool operator==(const CapacityPhase&) const = default;
};

/** A sampled disruption path of one node over [0, horizon). */
struct DisruptionPath
{
    double horizon_weeks = 0.0;
    /** The raw regime chain (before ramps and shocks). */
    std::vector<RegimeSegment> segments;
    /** Sampled Hawkes shocks, sorted by arrival time. */
    std::vector<DisruptionEvent> events;
    /**
     * The composed piecewise-constant capacity factor: regime factor
     * (ramped after outages) times the product of active shock
     * depths. Always ends with a phase at horizon_weeks restoring the
     * nominal factor, so downstream capacity integration terminates.
     */
    std::vector<CapacityPhase> phases;
    /** Fraction of the horizon spent in each regime (sums to 1). */
    std::array<double, kRegimeCount> occupancy{1.0, 0.0, 0.0};

    /** Time-average of the composed factor over [0, horizon). */
    double meanCapacity() const;

    bool operator==(const DisruptionPath&) const = default;
};

/**
 * Time-average of the composed factor @p phases over [0, horizon):
 * DisruptionPath::meanCapacity on the bare phase list.
 */
double meanCapacity(std::span<const CapacityPhase> phases,
                    double horizon_weeks);

/**
 * Reusable buffers of one node's sampled path: the fields of a
 * DisruptionPath plus the sampler's scratch space. An ensemble keeps
 * one per thread, so a path allocates nothing once the buffers have
 * grown to its size (they never outgrow the per-path event cap).
 */
struct DisruptionSample
{
    std::vector<RegimeSegment> segments;
    std::vector<DisruptionEvent> events;
    std::vector<CapacityPhase> phases;
    std::array<double, kRegimeCount> occupancy{1.0, 0.0, 0.0};

    /** Scratch: cascade FIFO, ramped regime phases, breakpoints. */
    std::vector<double> pending;
    std::vector<CapacityPhase> regime_phases;
    std::vector<double> shock_points;
    std::vector<double> breakpoints;
};

/**
 * Per-path stream seed: a splitmix64 mix of (seed, path_index). Pure
 * and O(1), so path k of an ensemble draws the identical stream no
 * matter which thread evaluates it or in what order — the ensemble
 * analogue of the serial pre-loop Rng::split() idiom.
 */
std::uint64_t derivePathSeed(std::uint64_t seed,
                             std::uint64_t path_index);

/**
 * Sample one node's disruption path over [0, horizon_weeks), stepping
 * the regime chain every @p step_weeks. Pure function of
 * (params, seed, path_index); throws ModelError when @p params are
 * invalid or a cascade exceeds the event safety cap (impossible for
 * validated alpha < 1 at sane mu).
 */
DisruptionPath sampleDisruptionPath(const DisruptionProcessParams& params,
                                    double horizon_weeks,
                                    double step_weeks, std::uint64_t seed,
                                    std::uint64_t path_index);

/**
 * Same sampler drawing from @p rng directly (the ensemble runner
 * splits one per-path parent into per-node child streams).
 */
DisruptionPath sampleDisruptionPath(const DisruptionProcessParams& params,
                                    double horizon_weeks,
                                    double step_weeks, Rng& rng);

/**
 * sampleDisruptionPath into @p out without validating its arguments:
 * the caller has checked @p params (violations() empty), the horizon
 * and the step once for many paths. Draws the same numbers in the same
 * order, so the segments, events, phases and occupancy equal
 * sampleDisruptionPath's bit for bit; throws ModelError only when a
 * cascade exceeds the event cap, with sampleDisruptionPath's message.
 */
void sampleDisruptionInto(const DisruptionProcessParams& params,
                          double horizon_weeks, double step_weeks,
                          Rng& rng, DisruptionSample& out);

/**
 * Conditional intensity lambda(t) of @p params given sampled
 * @p events — mu plus the exponentially-decaying excitation of every
 * earlier event. Always >= mu >= 0 (the property suite pins it).
 */
double hawkesIntensity(const HawkesParams& params,
                       const std::vector<DisruptionEvent>& events,
                       double t);

} // namespace ttmcas

#endif // TTMCAS_STATS_DISRUPTION_HH
