#include "report.hh"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "support/json.hh"

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto low = static_cast<std::size_t>(std::floor(rank));
    const std::size_t high = std::min(low + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(low);
    return values[low] + (values[high] - values[low]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

TimingSummary
summarize(std::vector<double> values)
{
    TimingSummary summary;
    summary.count = values.size();
    if (values.empty())
        return summary;
    std::sort(values.begin(), values.end());
    summary.median = percentile(values, 50.0);
    summary.tail = values.back();
    summary.tail_percentile = 100.0;
    for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
        const double beyond = static_cast<double>(values.size()) *
                              (100.0 - p) / 100.0;
        if (beyond >= 10.0) {
            summary.tail_percentile = p;
            summary.tail = percentile(values, p);
            break;
        }
    }
    return summary;
}

void
Report::add(const std::string& name, double value, const std::string& unit)
{
    _metrics.push_back({name, value, unit});
}

void
Report::note(const std::string& line)
{
    _notes.push_back(line);
}

void
Report::fail(const std::string& why)
{
    ++_failed;
    // Keep the log readable when a defect fails every operation.
    if (_failure_notes++ < 20)
        _notes.push_back("FAILED: " + why);
}

std::string
Report::resultLine() const
{
    std::string line = "{\"correct\": ";
    line += _failed == 0 && _attempted > 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(_attempted);
    line += ", \"failed\": " + std::to_string(_failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        const Metric& metric = _metrics[i];
        if (i > 0)
            line += ", ";
        line += "\"" + metric.name + "\": {\"value\": " +
                fullDigits(metric.value) + ", \"unit\": \"" + metric.unit +
                "\"}";
    }
    line += "}}";
    return line;
}

std::string
fullDigits(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::size_t
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    return online > 0 ? static_cast<std::size_t>(online) : 1;
}

namespace {

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

} // namespace

std::string
envStampLine(const EnvStamp& stamp)
{
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const std::size_t nproc = usableCpus();
    ttmcas::JsonWriter json;
    json.beginObject();
    json.key("stamp");
    json.beginObject();
    json.field("workload", stamp.workload);
    json.field("seed", static_cast<std::uint64_t>(stamp.seed));
    json.field("traced", stamp.traced);
    json.field("nproc", static_cast<std::uint64_t>(nproc));
    json.field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.field("build_type", build_type);
#ifdef __clang__
    json.field("compiler", std::string("clang ") + __clang_version__);
#else
    json.field("compiler", std::string("gcc ") + __VERSION__);
#endif
    json.field("cxx_flags", PERFBENCH_CXX_FLAGS);
    json.field("git_commit", stamp.git_commit);
    json.field("source_digest", stamp.source_digest);
    json.field("client_threads",
               static_cast<std::uint64_t>(stamp.client_threads));
    json.field("connections", static_cast<std::uint64_t>(stamp.connections));
    json.field("non_release_build", build_type != "Release");
    json.field("sanitizer_build", sanitized());
    json.field("clients_exceed_nproc",
               stamp.client_threads + stamp.connections > nproc);
    json.endObject();
    json.endObject();
    return json.str();
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
