#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

#include "stats/distributions.hh"
#include "support/error.hh"

namespace ttmcas {

namespace {

/** Where percentile @p p falls among @p n >= 2 sorted samples. */
struct Rank
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0.0;
};

Rank
rankOf(double p, std::size_t n)
{
    TTMCAS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    Rank at;
    at.lo = static_cast<std::size_t>(std::floor(rank));
    at.hi = std::min(at.lo + 1, n - 1);
    at.frac = rank - static_cast<double>(at.lo);
    return at;
}

/** Linear interpolation between the order statistics at a Rank. */
double
interpolate(const Rank& at, double lo, double hi)
{
    return lo + at.frac * (hi - lo);
}

/** The lower tail of a central interval covering @p coverage. */
double
tailOf(double coverage)
{
    TTMCAS_REQUIRE(coverage > 0.0 && coverage < 1.0,
                   "coverage must be in (0, 1)");
    return 100.0 * (1.0 - coverage) / 2.0;
}

} // namespace

Interval
Summary::percentileInterval(double coverage) const
{
    const double tail = tailOf(coverage);
    return Interval{percentile(tail), percentile(100.0 - tail)};
}

double
Summary::percentile(double p) const
{
    TTMCAS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
    TTMCAS_REQUIRE(!_sorted.empty(), "percentile of empty summary");
    if (_sorted.size() == 1)
        return _sorted.front();
    const Rank at = rankOf(p, _sorted.size());
    return interpolate(at, _sorted[at.lo], _sorted[at.hi]);
}

void
selectPercentiles(std::span<double> samples, std::span<const double> ps,
                  std::span<double> out)
{
    TTMCAS_REQUIRE(!samples.empty(), "percentile of empty samples");
    TTMCAS_REQUIRE(out.size() == ps.size(),
                   "one output per requested percentile");
    const std::size_t n = samples.size();
    // samples[0, placed) hold the `placed` smallest values, none larger
    // than any value after them, and samples[placed - 1] is the order
    // statistic of its rank.
    std::size_t placed = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        TTMCAS_REQUIRE(i == 0 || ps[i] >= ps[i - 1],
                       "percentiles must be non-decreasing");
        if (n == 1) {
            TTMCAS_REQUIRE(ps[i] >= 0.0 && ps[i] <= 100.0,
                           "percentile must be in [0, 100]");
            out[i] = samples.front();
            continue;
        }
        const Rank at = rankOf(ps[i], n);
        if (at.lo >= placed) {
            std::nth_element(samples.begin() + placed,
                             samples.begin() + at.lo, samples.end());
            placed = at.lo + 1;
        }
        if (at.hi >= placed) {
            // The next order statistic is the minimum of the rest.
            std::iter_swap(samples.begin() + at.hi,
                           std::min_element(samples.begin() + at.hi,
                                            samples.end()));
            placed = at.hi + 1;
        }
        out[i] = interpolate(at, samples[at.lo], samples[at.hi]);
    }
}

Interval
selectPercentileInterval(std::span<double> samples, double coverage)
{
    const double tail = tailOf(coverage);
    const double ps[2] = {tail, 100.0 - tail};
    double bounds[2] = {};
    selectPercentiles(samples, ps, bounds);
    return Interval{bounds[0], bounds[1]};
}

Interval
Summary::meanConfidence(double coverage) const
{
    TTMCAS_REQUIRE(coverage > 0.0 && coverage < 1.0,
                   "coverage must be in (0, 1)");
    TTMCAS_REQUIRE(count > 0, "meanConfidence of empty summary");
    const double z = inverseNormalCdf(0.5 + coverage / 2.0);
    const double half =
        z * stddev / std::sqrt(static_cast<double>(count));
    return Interval{mean - half, mean + half};
}

Summary
Summary::of(std::vector<double> samples)
{
    TTMCAS_REQUIRE(!samples.empty(), "Summary::of requires samples");

    RunningStats acc;
    for (double s : samples)
        acc.add(s);

    Summary summary;
    summary.count = acc.count();
    summary.mean = acc.mean();
    summary.variance = acc.count() >= 2 ? acc.variance() : 0.0;
    summary.stddev = std::sqrt(summary.variance);
    summary.min = acc.min();
    summary.max = acc.max();

    std::sort(samples.begin(), samples.end());
    summary._sorted = std::move(samples);
    return summary;
}

void
RunningStats::add(double value)
{
    if (_count == 0) {
        _min = value;
        _max = value;
    } else {
        _min = std::min(_min, value);
        _max = std::max(_max, value);
    }
    ++_count;
    const double delta = value - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (value - _mean);
}

double
RunningStats::mean() const
{
    TTMCAS_REQUIRE(_count > 0, "mean of empty accumulator");
    return _mean;
}

double
RunningStats::variance() const
{
    TTMCAS_REQUIRE(_count >= 2, "variance requires at least two samples");
    return _m2 / static_cast<double>(_count - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    TTMCAS_REQUIRE(_count > 0, "min of empty accumulator");
    return _min;
}

double
RunningStats::max() const
{
    TTMCAS_REQUIRE(_count > 0, "max of empty accumulator");
    return _max;
}

} // namespace ttmcas
