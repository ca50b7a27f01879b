#include "support/run_manifest.hh"

#include <filesystem>
#include <fstream>
#include <utility>

#include "support/json.hh"
#include "support/metrics.hh"

#ifndef TTMCAS_GIT_HASH
#define TTMCAS_GIT_HASH "unknown"
#endif

namespace ttmcas::obs {

std::string
buildGitHash()
{
    return TTMCAS_GIT_HASH;
}

void
RunManifest::setPolicy(const FailurePolicy& policy)
{
    failure_policy = policy.skips() ? "skip_and_record" : "abort";
    max_failure_fraction = policy.max_failure_fraction;
}

void
RunManifest::addKernel(KernelTiming timing)
{
    total_points += timing.points;
    total_failures += timing.failures;
    kernels.push_back(std::move(timing));
}

void
RunManifest::addFailureReport(const FailureReport& report)
{
    for (std::size_t i = 0; i < kDiagCodeCount; ++i) {
        const auto code = static_cast<DiagCode>(i);
        const std::size_t count = report.count(code);
        if (count == 0)
            continue;
        const std::string name = diagCodeName(code);
        bool merged = false;
        for (auto& [existing, value] : failure_counts) {
            if (existing == name) {
                value += count;
                merged = true;
                break;
            }
        }
        if (!merged)
            failure_counts.emplace_back(name, count);
    }
}

void
RunManifest::captureKernelMetrics(const MetricsSnapshot& snapshot)
{
    for (const HistogramSnapshot& histogram : snapshot.histograms) {
        if (histogram.name == "ttm.batch.size") {
            kernel_metrics.batches = histogram.count;
            kernel_metrics.samples =
                static_cast<std::uint64_t>(histogram.sum);
        } else if (histogram.name == "ttm.batch.ns_per_sample") {
            kernel_metrics.mean_ns_per_sample =
                histogram.count == 0
                    ? 0.0
                    : histogram.sum /
                          static_cast<double>(histogram.count);
        }
    }
}

std::string
RunManifest::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.field("tool", tool);
    json.field("git_hash", git_hash);
    json.field("seed", seed);
    json.field("threads", threads);
    json.field("failure_policy", failure_policy);
    json.field("max_failure_fraction", max_failure_fraction);
    json.key("kernels");
    json.beginArray();
    for (const KernelTiming& timing : kernels) {
        json.beginObject();
        json.field("kernel", timing.kernel);
        json.field("wall_ms", timing.wall_ms);
        json.field("points", timing.points);
        json.field("failures", timing.failures);
        json.endObject();
    }
    json.endArray();
    json.field("total_points", total_points);
    json.field("total_failures", total_failures);
    json.key("failure_counts");
    json.beginObject();
    for (const auto& [name, count] : failure_counts)
        json.field(name, count);
    json.endObject();
    json.field("disposition", disposition);
    json.field("parent_checkpoint", parent_checkpoint);
    json.field("checkpoint_points", checkpoint_points);
    json.key("kernel_metrics");
    json.beginObject();
    json.field("batches", kernel_metrics.batches);
    json.field("samples", kernel_metrics.samples);
    json.field("mean_ns_per_sample", kernel_metrics.mean_ns_per_sample);
    json.endObject();
    json.endObject();
    return std::move(json).str();
}

RunManifest
RunManifest::fromJson(const std::string& text)
{
    const JsonValue root = parseJson(text);
    RunManifest manifest;
    manifest.tool = root.at("tool").asString();
    manifest.git_hash = root.at("git_hash").asString();
    manifest.seed =
        static_cast<std::uint64_t>(root.at("seed").asNumber());
    manifest.threads =
        static_cast<std::uint64_t>(root.at("threads").asNumber());
    manifest.failure_policy = root.at("failure_policy").asString();
    manifest.max_failure_fraction =
        root.at("max_failure_fraction").asNumber();
    for (const JsonValue& entry : root.at("kernels").asArray()) {
        KernelTiming timing;
        timing.kernel = entry.at("kernel").asString();
        timing.wall_ms = entry.at("wall_ms").asNumber();
        timing.points = static_cast<std::uint64_t>(
            entry.at("points").asNumber());
        timing.failures = static_cast<std::uint64_t>(
            entry.at("failures").asNumber());
        manifest.kernels.push_back(std::move(timing));
    }
    manifest.total_points = static_cast<std::uint64_t>(
        root.at("total_points").asNumber());
    manifest.total_failures = static_cast<std::uint64_t>(
        root.at("total_failures").asNumber());
    const JsonValue& counts = root.at("failure_counts");
    for (const JsonValue& count : counts.members()) {
        manifest.failure_counts.emplace_back(
            count.key(), static_cast<std::uint64_t>(count.asNumber()));
    }
    // Resilience fields arrived after the first manifest release, so
    // they stay optional on parse: old manifests load with defaults.
    // Manifests of releases with a retry layer also carry
    // "total_retries"; like any unknown key it is ignored.
    if (root.has("disposition"))
        manifest.disposition = root.at("disposition").asString();
    if (root.has("parent_checkpoint"))
        manifest.parent_checkpoint =
            root.at("parent_checkpoint").asString();
    if (root.has("checkpoint_points")) {
        manifest.checkpoint_points = static_cast<std::uint64_t>(
            root.at("checkpoint_points").asNumber());
    }
    // kernel_metrics arrived with the compiled batch path; optional on
    // parse so pre-batch manifests load with the zero defaults.
    if (root.has("kernel_metrics")) {
        const JsonValue& metrics = root.at("kernel_metrics");
        manifest.kernel_metrics.batches = static_cast<std::uint64_t>(
            metrics.at("batches").asNumber());
        manifest.kernel_metrics.samples = static_cast<std::uint64_t>(
            metrics.at("samples").asNumber());
        manifest.kernel_metrics.mean_ns_per_sample =
            metrics.at("mean_ns_per_sample").asNumber();
    }
    return manifest;
}

void
RunManifest::write(const std::string& path) const
{
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    std::ofstream out(path, std::ios::trunc);
    TTMCAS_REQUIRE(out.good(), "cannot open manifest file '" + path +
                                   "' for writing");
    out << toJson() << '\n';
    TTMCAS_REQUIRE(out.good(),
                   "failed writing manifest file '" + path + "'");
}

ManifestKernelScope::ManifestKernelScope(RunManifest& manifest,
                                         std::string kernel)
    : _manifest(manifest), _kernel(std::move(kernel)),
      _start(std::chrono::steady_clock::now())
{}

ManifestKernelScope::~ManifestKernelScope()
{
    if (!_done)
        finish();
}

void
ManifestKernelScope::finish()
{
    if (_done)
        return;
    _done = true;
    const auto elapsed = std::chrono::steady_clock::now() - _start;
    KernelTiming timing;
    timing.kernel = _kernel;
    timing.wall_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    timing.points = _points;
    timing.failures = _failures;
    _manifest.addKernel(std::move(timing));
}

} // namespace ttmcas::obs
