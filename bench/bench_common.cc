#include "bench_common.hh"

#include <cstdio>
#include <sstream>
#include <thread>

#include "support/error.hh"
#include "support/json.hh"
#include "support/metrics.hh"

namespace ttmcas::bench {

void
banner(const std::string& title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

void
emitCsv(const std::string& name, const std::string& content)
{
    const std::string path = std::string(kOutputDir) + "/" + name;
    writeFile(path, content);
    std::cout << "[csv] " << path << "\n";
}

namespace {

/** Splice "key": value in front of @p object's closing brace. */
void
spliceField(std::string& object, const std::string& key,
            const std::string& value)
{
    const bool empty_object =
        object.find_first_not_of(" \t\r\n", 1) == object.size() - 1;
    std::string tail = empty_object ? "" : ",";
    tail += "\"" + key + "\":" + value + "}";
    object.replace(object.size() - 1, 1, tail);
}

/** True when this host can run kSpeedupThreads threads in parallel. */
bool
speedupMeasurable()
{
    return std::thread::hardware_concurrency() >= kSpeedupThreads;
}

} // namespace

std::string
speedupText(double speedup)
{
    if (!speedupMeasurable())
        return "n/a";
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%.2fx", speedup);
    return cell;
}

std::string
speedupJson(double speedup)
{
    if (!speedupMeasurable())
        return "null";
    std::ostringstream value;
    value << speedup;
    return value.str();
}

void
emitBenchJson(const std::string& name, const std::string& json_object)
{
    TTMCAS_REQUIRE(!json_object.empty() && json_object.front() == '{' &&
                       json_object.back() == '}',
                   "emitBenchJson needs a JSON object");
    std::string content = json_object;
    const std::string build_type = TTMCAS_BUILD_TYPE;
    JsonWriter host;
    host.beginObject();
    host.field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    host.field("build_type", build_type.empty() ? "unspecified" : build_type);
    host.endObject();
    spliceField(content, "host", host.str());
    const obs::MetricsSnapshot snapshot = obs::snapshotMetrics();
    if (!snapshot.counters.empty() || !snapshot.gauges.empty() ||
        !snapshot.histograms.empty())
        spliceField(content, "metrics", snapshot.toJson());
    parseJson(content); // fail loudly on malformed output
    const std::string path = std::string(kOutputDir) + "/" + name;
    writeFile(path, content);
    std::cout << "[json] " << path << "\n";
}

const std::vector<std::string>&
paperNodes()
{
    static const std::vector<std::string> nodes{
        "250nm", "180nm", "130nm", "90nm", "65nm",
        "40nm",  "28nm",  "14nm",  "7nm",  "5nm"};
    return nodes;
}

TtmModel::Options
a11ModelOptions()
{
    TtmModel::Options options;
    options.tapeout_engineers = kA11TapeoutEngineers;
    return options;
}

TtmModel::Options
zen2ModelOptions()
{
    TtmModel::Options options;
    options.tapeout_engineers = kZen2TapeoutEngineers;
    return options;
}

} // namespace ttmcas::bench
