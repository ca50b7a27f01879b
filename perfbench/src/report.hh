#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

/**
 * @file
 * Metric collection, timing summaries, the environment stamp, and the
 * one-line JSON result every run ends with.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Median plus the highest percentile with >= 10 samples beyond it. */
struct TimingSummary
{
    std::size_t count = 0;
    double median = 0.0;
    /** The tail percentile reported (99, 95, 90, ... or 100 = max). */
    double tail_percentile = 100.0;
    double tail = 0.0;
};

/**
 * Summarize @p values (any unit). The tail is p99 when at least 1000
 * samples support it, else the highest of p95/p90/p75/p50 that leaves
 * >= 10 samples beyond it, else the maximum.
 */
TimingSummary summarize(std::vector<double> values);

/** Median of @p values; 0 for an empty set. */
double median(std::vector<double> values);

/** Linear-interpolated percentile @p p in [0, 100]. */
double percentile(std::vector<double> values, double p);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The run's metrics plus its attempted/failed tally. */
class Report
{
  public:
    void add(const std::string& name, double value, const std::string& unit);
    /** One human-readable detail line (printed before the result). */
    void note(const std::string& line);

    void attempt(std::uint64_t count = 1) { _attempted += count; }
    void fail(const std::string& why);

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }
    const std::vector<std::string>& notes() const { return _notes; }

    /** The final result line: correct, attempted, failed, metrics. */
    std::string resultLine() const;

  private:
    std::vector<Metric> _metrics;
    std::vector<std::string> _notes;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
    std::size_t _failure_notes = 0;
};

/** What the run was measured on, printed as one JSON line. */
struct EnvStamp
{
    std::string workload;
    std::uint64_t seed = 0;
    bool traced = false;
    std::size_t client_threads = 0;
    std::size_t connections = 0;
    std::string git_commit = "unknown";
    std::string source_digest = "unknown";
};

/** Usable CPUs of this process (affinity mask), at least 1. */
std::size_t usableCpus();

std::string envStampLine(const EnvStamp& stamp);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** Render @p value with all its significant digits. */
std::string fullDigits(double value);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
