#ifndef TTMCAS_STATS_SUMMARY_HH
#define TTMCAS_STATS_SUMMARY_HH

/**
 * @file
 * Summary statistics over Monte-Carlo samples.
 *
 * The paper reports the *average of 1024 samples* plus 95% confidence
 * intervals of the output variance under +/-10% and +/-25% input variance
 * (shown as error bars / shaded regions in Figs. 7, 9, 11, 12). Summary
 * captures all of those quantities from a sample vector.
 */

#include <cstddef>
#include <span>
#include <vector>

namespace ttmcas {

/** Two-sided interval [lo, hi]. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;

    double width() const { return hi - lo; }
    bool contains(double x) const { return x >= lo && x <= hi; }
};

/** Sample moments and order statistics of a batch of model outputs. */
struct Summary
{
    std::size_t count = 0;
    double mean = 0.0;
    double variance = 0.0; ///< unbiased (n-1) sample variance
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;

    /**
     * Central interval covering @p coverage of the *sample distribution*
     * (e.g. 0.95 -> the [2.5%, 97.5%] percentile band). This is the
     * "output variance 95% CI" plotted in the paper.
     */
    Interval percentileInterval(double coverage) const;

    /** p-th percentile (0 <= p <= 100) by linear interpolation. */
    double percentile(double p) const;

    /**
     * Confidence interval of the *mean* (normal approximation),
     * mean +/- z * stddev / sqrt(n).
     */
    Interval meanConfidence(double coverage = 0.95) const;

    /** Sorted copy of the underlying samples (kept for percentiles). */
    const std::vector<double>& sorted() const { return _sorted; }

    /** Build a summary from raw samples (must be non-empty). */
    static Summary of(std::vector<double> samples);

  private:
    std::vector<double> _sorted;
};

/**
 * Percentiles by selection: out[i] is Summary::of(samples)
 * .percentile(ps[i]) bit for bit, found with std::nth_element instead
 * of a full sort. Selection places the same order statistics the sort
 * would, and the same interpolation reads them. @p ps must be
 * non-decreasing; @p samples must be non-empty and free of NaN, and
 * come back reordered.
 */
void selectPercentiles(std::span<double> samples,
                       std::span<const double> ps, std::span<double> out);

/** Summary::of(samples).percentileInterval(coverage), by selection. */
Interval selectPercentileInterval(std::span<double> samples,
                                  double coverage);

/** Online mean/variance accumulator (Welford). */
class RunningStats
{
  public:
    void add(double value);

    std::size_t count() const { return _count; }
    double mean() const;
    double variance() const; ///< unbiased; requires count >= 2
    double stddev() const;
    double min() const;
    double max() const;

  private:
    std::size_t _count = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

} // namespace ttmcas

#endif // TTMCAS_STATS_SUMMARY_HH
