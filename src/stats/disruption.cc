#include "stats/disruption.hh"

#include <algorithm>
#include <cmath>

#include "support/error.hh"

namespace ttmcas {

namespace {

/** Event safety cap per path; unreachable for validated alpha < 1. */
constexpr std::size_t kMaxEventsPerPath = 65536;

std::size_t
index(Regime regime)
{
    return static_cast<std::size_t>(regime);
}

/** One splitmix64 step (the Rng seeding/stream-splitting mixer). */
std::uint64_t
splitmix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Finite-and-in-range check that appends a violation message. The
 * field name is @p name followed by @p suffix, joined only on failure.
 */
void
checkRange(std::vector<std::string>& violations, double value,
           double lo, double hi, const char* name, const char* suffix = "")
{
    if (!std::isfinite(value) || value < lo || value > hi)
        violations.push_back(std::string(name) + suffix +
                             " must be a finite number in [" +
                             std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
}

void
requireValid(const std::vector<std::string>& violations,
             const char* what)
{
    if (violations.empty())
        return;
    std::string message = std::string(what) + " invalid:";
    for (const std::string& violation : violations)
        message += " " + violation + ";";
    throw ModelError(message);
}

/**
 * Seeded Poisson deviate. Knuth multiplication for small means; a
 * clamped normal approximation above (exact distribution does not
 * matter there, determinism and boundedness do). @p limit is
 * std::exp(-mean), passed in so a mean drawn from many times pays the
 * exponential once.
 */
std::uint64_t
samplePoisson(Rng& rng, double mean, double limit)
{
    if (!(mean > 0.0))
        return 0;
    if (mean < 64.0) {
        std::uint64_t count = 0;
        double product = rng.uniform();
        while (product > limit) {
            ++count;
            product *= rng.uniform();
        }
        return count;
    }
    const double draw =
        std::round(mean + std::sqrt(mean) * rng.normal());
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw);
}

} // namespace

const char*
regimeName(Regime regime)
{
    switch (regime) {
    case Regime::Nominal: return "nominal";
    case Regime::Constrained: return "constrained";
    case Regime::Outage: return "outage";
    }
    return "unknown";
}

MarkovRegimeParams
MarkovRegimeParams::defaults()
{
    MarkovRegimeParams params;
    params.transition = {{{0.96, 0.03, 0.01},
                          {0.10, 0.85, 0.05},
                          {0.00, 0.25, 0.75}}};
    params.capacity = {1.0, 0.6, 0.0};
    params.recovery_ramp_weeks = 8.0;
    params.recovery_ramp_steps = 4;
    params.initial = Regime::Nominal;
    return params;
}

std::vector<std::string>
MarkovRegimeParams::violations() const
{
    std::vector<std::string> violations;
    for (std::size_t row = 0; row < kRegimeCount; ++row) {
        double sum = 0.0;
        bool row_ok = true;
        for (std::size_t col = 0; col < kRegimeCount; ++col) {
            const double p = transition[row][col];
            if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
                violations.push_back(
                    "markov.transition[" + std::to_string(row) + "][" +
                    std::to_string(col) +
                    "] must be a probability in [0, 1]");
                row_ok = false;
            }
            sum += p;
        }
        if (row_ok && std::abs(sum - 1.0) > 1e-9)
            violations.push_back("markov.transition row " +
                                 std::to_string(row) +
                                 " must sum to 1");
    }
    for (std::size_t r = 0; r < kRegimeCount; ++r)
        checkRange(violations, capacity[r], 0.0, 16.0, "markov.capacity.",
                   regimeName(static_cast<Regime>(r)));
    if (std::isfinite(capacity[index(Regime::Nominal)]) &&
        capacity[index(Regime::Nominal)] <= 0.0)
        violations.push_back("markov.capacity.nominal must be > 0");
    checkRange(violations, recovery_ramp_weeks, 0.0, 520.0,
               "markov.recovery_ramp_weeks");
    if (recovery_ramp_steps < 1 || recovery_ramp_steps > 64)
        violations.push_back(
            "markov.recovery_ramp_steps must be in [1, 64]");
    return violations;
}

std::array<double, kRegimeCount>
MarkovRegimeParams::stationary() const
{
    requireValid(violations(), "MarkovRegimeParams");
    std::array<double, kRegimeCount> pi{};
    pi.fill(1.0 / static_cast<double>(kRegimeCount));
    for (int iteration = 0; iteration < 4096; ++iteration) {
        std::array<double, kRegimeCount> next{};
        for (std::size_t row = 0; row < kRegimeCount; ++row)
            for (std::size_t col = 0; col < kRegimeCount; ++col)
                next[col] += pi[row] * transition[row][col];
        double delta = 0.0;
        for (std::size_t r = 0; r < kRegimeCount; ++r)
            delta += std::abs(next[r] - pi[r]);
        pi = next;
        if (delta < 1e-14)
            break;
    }
    double total = 0.0;
    for (double p : pi)
        total += p;
    for (double& p : pi)
        p /= total;
    return pi;
}

HawkesParams
HawkesParams::defaults()
{
    HawkesParams params;
    params.mu = 0.02;
    params.alpha = 0.5;
    params.beta = 0.7;
    params.shock_depth_min = 0.4;
    params.shock_depth_max = 0.8;
    params.shock_weeks = 2.0;
    return params;
}

std::vector<std::string>
HawkesParams::violations() const
{
    std::vector<std::string> violations;
    checkRange(violations, mu, 0.0, 8.0, "hawkes.mu");
    if (!std::isfinite(alpha) || alpha < 0.0 || alpha >= 1.0)
        violations.push_back(
            "hawkes.alpha (branching ratio) must be finite in [0, 1)");
    if (!std::isfinite(beta) || beta <= 0.0 || beta > 1000.0)
        violations.push_back("hawkes.beta must be finite in (0, 1000]");
    if (!std::isfinite(shock_depth_min) || shock_depth_min <= 0.0 ||
        shock_depth_min > 1.0)
        violations.push_back(
            "hawkes.shock_depth_min must be finite in (0, 1]");
    if (!std::isfinite(shock_depth_max) || shock_depth_max <= 0.0 ||
        shock_depth_max > 1.0)
        violations.push_back(
            "hawkes.shock_depth_max must be finite in (0, 1]");
    if (std::isfinite(shock_depth_min) && std::isfinite(shock_depth_max) &&
        shock_depth_min > shock_depth_max)
        violations.push_back(
            "hawkes.shock_depth_min must be <= hawkes.shock_depth_max");
    if (!std::isfinite(shock_weeks) || shock_weeks <= 0.0 ||
        shock_weeks > 520.0)
        violations.push_back(
            "hawkes.shock_weeks must be finite in (0, 520]");
    return violations;
}

std::vector<std::string>
DisruptionProcessParams::violations() const
{
    std::vector<std::string> all = markov.violations();
    const std::vector<std::string> hawkes_violations =
        hawkes.violations();
    all.insert(all.end(), hawkes_violations.begin(),
               hawkes_violations.end());
    return all;
}

double
meanCapacity(std::span<const CapacityPhase> phases, double horizon_weeks)
{
    if (horizon_weeks <= 0.0 || phases.empty())
        return 1.0;
    double accumulated = 0.0;
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const double start = phases[i].start_week;
        if (start >= horizon_weeks)
            break;
        const double end = i + 1 < phases.size()
                               ? std::min(phases[i + 1].start_week,
                                          horizon_weeks)
                               : horizon_weeks;
        accumulated += phases[i].factor * (end - start);
    }
    return accumulated / horizon_weeks;
}

double
DisruptionPath::meanCapacity() const
{
    return ttmcas::meanCapacity(phases, horizon_weeks);
}

std::uint64_t
derivePathSeed(std::uint64_t seed, std::uint64_t path_index)
{
    // Decorrelate the seed first, then fold in the path index with the
    // Rng::split() stream constant; two splitmix64 rounds make nearby
    // (seed, index) pairs land on unrelated streams.
    std::uint64_t state = seed;
    const std::uint64_t mixed_seed = splitmix64(state);
    state = mixed_seed ^
            (path_index * 0x9e3779b97f4a7c15ULL + 0xd2b74407b1ce6e93ULL);
    return splitmix64(state);
}

namespace {

/** The regime chain post-processed into ramped capacity phases. */
void
rampedRegimePhases(DisruptionSample& out, double horizon_weeks,
                   const MarkovRegimeParams& markov)
{
    const std::vector<RegimeSegment>& segments = out.segments;
    std::vector<CapacityPhase>& phases = out.regime_phases;
    phases.clear();
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const RegimeSegment& segment = segments[i];
        const double start = segment.start_week;
        const double end = i + 1 < segments.size()
                               ? segments[i + 1].start_week
                               : horizon_weeks;
        const double target = markov.capacity[index(segment.regime)];
        const bool after_outage =
            i > 0 && segments[i - 1].regime == Regime::Outage;
        const double floor = markov.capacity[index(Regime::Outage)];
        if (after_outage && target > floor &&
            markov.recovery_ramp_weeks > 0.0 &&
            markov.recovery_ramp_steps > 1) {
            const double ramp_len =
                std::min(markov.recovery_ramp_weeks, end - start);
            const int steps = markov.recovery_ramp_steps;
            for (int j = 0; j < steps; ++j) {
                CapacityPhase phase;
                phase.start_week =
                    start + ramp_len * static_cast<double>(j) /
                                static_cast<double>(steps);
                phase.factor =
                    floor + (target - floor) *
                                static_cast<double>(j + 1) /
                                static_cast<double>(steps);
                phases.push_back(phase);
            }
        } else {
            phases.push_back({start, target});
        }
    }
}

/**
 * Compose ramped regime phases with shock multipliers: at every
 * breakpoint (week 0, each regime phase start, each shock's arrival
 * and in-horizon end), the factor of the last regime phase starting at
 * or before it times the depth of each shock active there, in arrival
 * order.
 *
 * The three breakpoint lists are each sorted already — ramp phases
 * stay inside their segment, and all shocks share one duration, so
 * their ends keep the arrivals' order — so merging them gives the
 * sorted union, and sweeping it moves three cursors forward: the
 * current regime phase, the shocks arrived and the shocks ended. The
 * active shocks are the contiguous run between the last two.
 */
void
composePhases(DisruptionSample& out, double horizon_weeks,
              const DisruptionProcessParams& params)
{
    rampedRegimePhases(out, horizon_weeks, params.markov);
    const std::vector<CapacityPhase>& regime_phases = out.regime_phases;
    const std::vector<DisruptionEvent>& events = out.events;
    const auto end_of = [&](std::size_t i) {
        return events[i].time_week + events[i].duration_weeks;
    };

    // Shock arrivals merged with the in-horizon shock ends.
    std::vector<double>& shock_points = out.shock_points;
    shock_points.clear();
    for (std::size_t arrival = 0, end = 0; end < events.size();) {
        if (arrival < events.size() &&
            events[arrival].time_week <= end_of(end)) {
            shock_points.push_back(events[arrival++].time_week);
            continue;
        }
        if (end_of(end) < horizon_weeks)
            shock_points.push_back(end_of(end));
        ++end;
    }
    // ... merged with week 0 and the regime phase starts.
    std::vector<double>& breakpoints = out.breakpoints;
    breakpoints.clear();
    breakpoints.push_back(0.0);
    for (std::size_t r = 0, p = 0;
         r < regime_phases.size() || p < shock_points.size();) {
        if (p == shock_points.size() ||
            (r < regime_phases.size() &&
             regime_phases[r].start_week <= shock_points[p]))
            breakpoints.push_back(regime_phases[r++].start_week);
        else
            breakpoints.push_back(shock_points[p++]);
    }

    out.phases.clear();
    std::size_t regime = 0;  // last regime phase starting at or before t
    std::size_t arrived = 0; // shocks with time_week <= t
    std::size_t ended = 0;   // shocks ended at or before t
    for (std::size_t b = 0; b < breakpoints.size(); ++b) {
        const double t = breakpoints[b];
        if (t >= horizon_weeks || (b > 0 && t == breakpoints[b - 1]))
            continue;
        while (regime + 1 < regime_phases.size() &&
               regime_phases[regime + 1].start_week <= t)
            ++regime;
        while (arrived < events.size() && events[arrived].time_week <= t)
            ++arrived;
        while (ended < arrived && end_of(ended) <= t)
            ++ended;
        double factor =
            regime_phases.empty() ? 1.0 : regime_phases[regime].factor;
        for (std::size_t i = ended; i < arrived; ++i)
            factor *= events[i].depth;
        if (factor < 0.0)
            factor = 0.0;
        if (!out.phases.empty() && out.phases.back().factor == factor)
            continue; // collapse equal-factor neighbours
        out.phases.push_back({t, factor});
    }
    // Beyond the modeled horizon capacity reverts to the nominal
    // factor, so capacity integration always terminates.
    out.phases.push_back(
        {horizon_weeks, params.markov.capacity[index(Regime::Nominal)]});
}

/**
 * Stable sort of @p events by arrival time. A path holds a handful of
 * shocks, and an insertion sort orders those without the buffer
 * std::stable_sort allocates; both are stable, so the order is the same.
 */
void
sortByArrival(std::vector<DisruptionEvent>& events)
{
    const auto earlier = [](const DisruptionEvent& a,
                            const DisruptionEvent& b) {
        return a.time_week < b.time_week;
    };
    if (events.size() > 32) {
        std::stable_sort(events.begin(), events.end(), earlier);
        return;
    }
    for (std::size_t i = 1; i < events.size(); ++i) {
        const DisruptionEvent event = events[i];
        std::size_t j = i;
        for (; j > 0 && earlier(event, events[j - 1]); --j)
            events[j] = events[j - 1];
        events[j] = event;
    }
}

} // namespace

DisruptionPath
sampleDisruptionPath(const DisruptionProcessParams& params,
                     double horizon_weeks, double step_weeks,
                     std::uint64_t seed, std::uint64_t path_index)
{
    Rng rng(derivePathSeed(seed, path_index));
    return sampleDisruptionPath(params, horizon_weeks, step_weeks, rng);
}

DisruptionPath
sampleDisruptionPath(const DisruptionProcessParams& params,
                     double horizon_weeks, double step_weeks, Rng& rng)
{
    requireValid(params.violations(), "DisruptionProcessParams");
    if (!std::isfinite(horizon_weeks) || horizon_weeks <= 0.0)
        throw ModelError("disruption horizon_weeks must be finite > 0");
    if (!std::isfinite(step_weeks) || step_weeks <= 0.0 ||
        step_weeks > horizon_weeks)
        throw ModelError(
            "disruption step_weeks must be finite in (0, horizon]");

    DisruptionSample sample;
    sampleDisruptionInto(params, horizon_weeks, step_weeks, rng, sample);
    DisruptionPath path;
    path.horizon_weeks = horizon_weeks;
    path.segments = std::move(sample.segments);
    path.events = std::move(sample.events);
    path.phases = std::move(sample.phases);
    path.occupancy = sample.occupancy;
    return path;
}

void
sampleDisruptionInto(const DisruptionProcessParams& params,
                     double horizon_weeks, double step_weeks, Rng& rng,
                     DisruptionSample& out)
{
    // 1. The regime chain, stepped every step_weeks. All randomness
    // is consumed in a fixed order from the single per-path stream.
    out.segments.clear();
    Regime state = params.markov.initial;
    out.segments.push_back({0.0, state});
    const std::size_t steps = static_cast<std::size_t>(
        std::ceil(horizon_weeks / step_weeks));
    // The running sums of each transition row, added once per path
    // rather than once per step (the same sums, so the same draws).
    RegimeMatrix cumulative{};
    for (std::size_t row = 0; row < kRegimeCount; ++row) {
        double sum = 0.0;
        for (std::size_t j = 0; j < kRegimeCount; ++j) {
            sum += params.markov.transition[row][j];
            cumulative[row][j] = sum;
        }
    }
    for (std::size_t k = 1; k < steps; ++k) {
        const double u = rng.uniform();
        const auto& row = cumulative[index(state)];
        std::size_t next = 0;
        while (next < kRegimeCount - 1 && !(u < row[next]))
            ++next;
        const Regime next_regime = static_cast<Regime>(next);
        if (next_regime != state) {
            out.segments.push_back(
                {static_cast<double>(k) * step_weeks, next_regime});
            state = next_regime;
        }
    }
    out.occupancy.fill(0.0);
    for (std::size_t i = 0; i < out.segments.size(); ++i) {
        const double start = out.segments[i].start_week;
        const double end = i + 1 < out.segments.size()
                               ? out.segments[i + 1].start_week
                               : horizon_weeks;
        out.occupancy[index(out.segments[i].regime)] +=
            (end - start) / horizon_weeks;
    }

    // 2. Hawkes shocks via the cluster representation: immigrant
    // arrivals first, then the cascade queue processed front-to-back
    // (FIFO), each event drawing depth, then children, then delays.
    out.events.clear();
    const HawkesParams& hawkes = params.hawkes;
    if (hawkes.mu > 0.0) {
        const double immigrant_mean = hawkes.mu * horizon_weeks;
        const std::uint64_t immigrants = samplePoisson(
            rng, immigrant_mean, std::exp(-immigrant_mean));
        const double children_limit = std::exp(-hawkes.alpha);
        std::vector<double>& pending = out.pending;
        pending.clear();
        for (std::uint64_t i = 0; i < immigrants; ++i)
            pending.push_back(rng.uniform(0.0, horizon_weeks));
        for (std::size_t head = 0; head < pending.size(); ++head) {
            const double time = pending[head];
            DisruptionEvent event;
            event.time_week = time;
            event.depth = rng.uniform(hawkes.shock_depth_min,
                                      hawkes.shock_depth_max);
            event.duration_weeks = hawkes.shock_weeks;
            out.events.push_back(event);
            if (out.events.size() > kMaxEventsPerPath)
                throw ModelError(
                    "hawkes cascade exceeded the per-path event cap");
            const std::uint64_t children =
                samplePoisson(rng, hawkes.alpha, children_limit);
            for (std::uint64_t c = 0; c < children; ++c) {
                const double delay =
                    -std::log1p(-rng.uniform()) / hawkes.beta;
                const double child_time = time + delay;
                if (child_time < horizon_weeks)
                    pending.push_back(child_time);
            }
        }
        sortByArrival(out.events);
    }

    // 3. Lower (regime chain + ramps) x (shock multipliers) into one
    // piecewise-constant capacity factor.
    composePhases(out, horizon_weeks, params);
}

double
hawkesIntensity(const HawkesParams& params,
                const std::vector<DisruptionEvent>& events, double t)
{
    double intensity = params.mu;
    for (const DisruptionEvent& event : events) {
        if (event.time_week < t)
            intensity += params.alpha * params.beta *
                         std::exp(-params.beta * (t - event.time_week));
    }
    return intensity;
}

} // namespace ttmcas
