#include "support/run_manifest.hh"

#include <gtest/gtest.h>

#include "core/reference_designs.hh"
#include "core/uncertainty.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "support/outcome.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

obs::RunManifest
sampleManifest()
{
    obs::RunManifest manifest;
    manifest.tool = "test_harness";
    manifest.git_hash = "abc1234";
    manifest.seed = 2023;
    manifest.threads = 8;
    manifest.setPolicy(FailurePolicy::skipAndRecord(0.25));
    manifest.addKernel({"sampleTtm", 12.5, 1024, 2});
    manifest.addKernel({"sobolAnalyze", 3.25, 256, 0});
    return manifest;
}

TEST(RunManifestTest, BuildGitHashIsNonEmpty)
{
    EXPECT_FALSE(obs::buildGitHash().empty());
}

TEST(RunManifestTest, SetPolicyCopiesModeAndCircuitBreaker)
{
    obs::RunManifest manifest;
    manifest.setPolicy(FailurePolicy::abort());
    EXPECT_EQ(manifest.failure_policy, "abort");
    manifest.setPolicy(FailurePolicy::skipAndRecord(0.5));
    EXPECT_EQ(manifest.failure_policy, "skip_and_record");
    EXPECT_DOUBLE_EQ(manifest.max_failure_fraction, 0.5);
}

TEST(RunManifestTest, AddKernelFoldsTotals)
{
    const obs::RunManifest manifest = sampleManifest();
    ASSERT_EQ(manifest.kernels.size(), 2u);
    EXPECT_EQ(manifest.total_points, 1280u);
    EXPECT_EQ(manifest.total_failures, 2u);
}

TEST(RunManifestTest, AddFailureReportRecordsPerCodeCounts)
{
    FailureReport report;
    Diagnostic diagnostic;
    diagnostic.code = DiagCode::NonFiniteTtm;
    report.addPoint();
    report.record(diagnostic);
    diagnostic.code = DiagCode::InjectedFault;
    report.addPoint();
    report.record(diagnostic);
    report.addPoint();
    report.record(diagnostic);

    obs::RunManifest manifest;
    manifest.addFailureReport(report);
    bool ttm_seen = false, injected_seen = false;
    for (const auto& [code, count] : manifest.failure_counts) {
        if (code == diagCodeName(DiagCode::NonFiniteTtm)) {
            EXPECT_EQ(count, 1u);
            ttm_seen = true;
        }
        if (code == diagCodeName(DiagCode::InjectedFault)) {
            EXPECT_EQ(count, 2u);
            injected_seen = true;
        }
    }
    EXPECT_TRUE(ttm_seen);
    EXPECT_TRUE(injected_seen);
}

TEST(RunManifestTest, JsonRoundTripIsLossless)
{
    const obs::RunManifest manifest = sampleManifest();
    const obs::RunManifest reparsed =
        obs::RunManifest::fromJson(manifest.toJson());
    EXPECT_EQ(manifest, reparsed);
}

TEST(RunManifestTest, RoundTripKeepsFailureCounts)
{
    FailureReport report;
    Diagnostic diagnostic;
    diagnostic.code = DiagCode::InvalidInput;
    report.addPoint();
    report.record(diagnostic);
    obs::RunManifest manifest = sampleManifest();
    manifest.addFailureReport(report);
    const obs::RunManifest reparsed =
        obs::RunManifest::fromJson(manifest.toJson());
    EXPECT_EQ(manifest, reparsed);
}

TEST(RunManifestTest, ResilienceFieldsRoundTrip)
{
    obs::RunManifest manifest = sampleManifest();
    manifest.disposition = "resumed";
    manifest.parent_checkpoint = "runs/ck.json";
    manifest.checkpoint_points = 1280;
    const obs::RunManifest reparsed =
        obs::RunManifest::fromJson(manifest.toJson());
    EXPECT_EQ(manifest, reparsed);
    EXPECT_EQ(reparsed.disposition, "resumed");
    EXPECT_EQ(reparsed.parent_checkpoint, "runs/ck.json");
    EXPECT_EQ(reparsed.checkpoint_points, 1280u);
}

void
rewriteValue(JsonWriter& json, const JsonValue& value)
{
    switch (value.kind()) {
    case JsonValue::Kind::Null: json.null(); break;
    case JsonValue::Kind::Boolean: json.value(value.asBool()); break;
    case JsonValue::Kind::Number: json.value(value.asNumber()); break;
    case JsonValue::Kind::String: json.value(value.asString()); break;
    case JsonValue::Kind::Array:
        json.beginArray();
        for (const JsonValue& element : value.asArray())
            rewriteValue(json, element);
        json.endArray();
        break;
    case JsonValue::Kind::Object:
        json.beginObject();
        for (const JsonValue& member : value.members()) {
            json.key(member.key());
            rewriteValue(json, member);
        }
        json.endObject();
        break;
    }
}

TEST(RunManifestTest, ManifestsWithoutResilienceFieldsStillParse)
{
    // The resilience fields postdate the first manifest release:
    // documents written before them must load with the defaults.
    const obs::RunManifest manifest = sampleManifest();
    const JsonValue document = parseJson(manifest.toJson());
    JsonWriter stripped;
    stripped.beginObject();
    for (const JsonValue& member : document.members()) {
        const std::string& key = member.key();
        if (key == "disposition" ||
            key == "parent_checkpoint" || key == "checkpoint_points")
            continue;
        stripped.key(key);
        rewriteValue(stripped, member);
    }
    stripped.endObject();
    const obs::RunManifest reparsed =
        obs::RunManifest::fromJson(stripped.str());
    EXPECT_EQ(reparsed.disposition, "completed");
    EXPECT_TRUE(reparsed.parent_checkpoint.empty());
    EXPECT_EQ(reparsed.checkpoint_points, 0u);
}

TEST(RunManifestTest, ManifestsWithTotalRetriesStillParse)
{
    // Releases with a retry layer wrote "total_retries"; those
    // manifests must keep loading now that the field is gone.
    const obs::RunManifest manifest = sampleManifest();
    const JsonValue document = parseJson(manifest.toJson());
    JsonWriter legacy;
    legacy.beginObject();
    for (const JsonValue& member : document.members()) {
        const std::string& key = member.key();
        legacy.key(key);
        rewriteValue(legacy, member);
        if (key == "disposition") {
            legacy.key("total_retries");
            legacy.value(17.0);
        }
    }
    legacy.endObject();
    ASSERT_NE(legacy.str().find("\"total_retries\""), std::string::npos);
    EXPECT_EQ(obs::RunManifest::fromJson(legacy.str()), manifest);
}

TEST(RunManifestTest, WriterOmitsTotalRetries)
{
    const JsonValue document = parseJson(sampleManifest().toJson());
    EXPECT_FALSE(document.has("total_retries"));
}

TEST(RunManifestTest, ToJsonIsAValidJsonObject)
{
    const JsonValue document = parseJson(sampleManifest().toJson());
    EXPECT_EQ(document.at("tool").asString(), "test_harness");
    EXPECT_DOUBLE_EQ(document.at("seed").asNumber(), 2023.0);
    EXPECT_EQ(document.at("failure_policy").asString(),
              "skip_and_record");
    const auto& kernels = document.at("kernels").asArray();
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_EQ(kernels[0].at("kernel").asString(), "sampleTtm");
    EXPECT_DOUBLE_EQ(kernels[0].at("points").asNumber(), 1024.0);
}

TEST(RunManifestTest, FromJsonRejectsMalformedInput)
{
    EXPECT_THROW(obs::RunManifest::fromJson("not json"), ModelError);
    EXPECT_THROW(obs::RunManifest::fromJson("{}"), ModelError);
}

TEST(RunManifestTest, KernelScopeAppendsTiming)
{
    obs::RunManifest manifest;
    {
        obs::ManifestKernelScope scope(manifest, "CacheSweep::sweep");
        scope.setPoints(9);
        scope.setFailures(1);
    }
    ASSERT_EQ(manifest.kernels.size(), 1u);
    EXPECT_EQ(manifest.kernels[0].kernel, "CacheSweep::sweep");
    EXPECT_EQ(manifest.kernels[0].points, 9u);
    EXPECT_EQ(manifest.kernels[0].failures, 1u);
    EXPECT_GE(manifest.kernels[0].wall_ms, 0.0);
    EXPECT_EQ(manifest.total_points, 9u);
}

TEST(RunManifestTest, KernelScopeFinishIsIdempotent)
{
    obs::RunManifest manifest;
    {
        obs::ManifestKernelScope scope(manifest, "once");
        scope.finish();
        scope.finish(); // second call must not double-record
    }
    EXPECT_EQ(manifest.kernels.size(), 1u);
}

TEST(RunManifestTest, KernelMetricsRoundTrip)
{
    obs::RunManifest manifest = sampleManifest();
    manifest.kernel_metrics.batches = 12;
    manifest.kernel_metrics.samples = 4096;
    manifest.kernel_metrics.mean_ns_per_sample = 87.5;
    const obs::RunManifest parsed =
        obs::RunManifest::fromJson(manifest.toJson());
    EXPECT_EQ(parsed, manifest);
    EXPECT_EQ(parsed.kernel_metrics.batches, 12u);
    EXPECT_EQ(parsed.kernel_metrics.samples, 4096u);
    EXPECT_DOUBLE_EQ(parsed.kernel_metrics.mean_ns_per_sample, 87.5);
}

TEST(RunManifestTest, ManifestsWithoutKernelMetricsStillParse)
{
    obs::RunManifest manifest = sampleManifest();
    std::string json = manifest.toJson();
    const std::size_t at = json.find(",\"kernel_metrics\"");
    ASSERT_NE(at, std::string::npos);
    json.erase(at, json.rfind('}') - at); // drop the trailing object
    const obs::RunManifest parsed = obs::RunManifest::fromJson(json);
    EXPECT_EQ(parsed.kernel_metrics.batches, 0u);
    EXPECT_EQ(parsed.kernel_metrics.samples, 0u);
    EXPECT_DOUBLE_EQ(parsed.kernel_metrics.mean_ns_per_sample, 0.0);
}

TEST(RunManifestTest, CaptureKernelMetricsReadsBatchHistograms)
{
    obs::MetricsSnapshot snapshot;
    obs::HistogramSnapshot size;
    size.name = "ttm.batch.size";
    size.count = 3;
    size.sum = 96.0 + 96.0 + 64.0;
    obs::HistogramSnapshot ns;
    ns.name = "ttm.batch.ns_per_sample";
    ns.count = 3;
    ns.sum = 300.0;
    snapshot.histograms = {ns, size};

    obs::RunManifest manifest;
    manifest.captureKernelMetrics(snapshot);
    EXPECT_EQ(manifest.kernel_metrics.batches, 3u);
    EXPECT_EQ(manifest.kernel_metrics.samples, 256u);
    EXPECT_DOUBLE_EQ(manifest.kernel_metrics.mean_ns_per_sample, 100.0);

    // An empty snapshot leaves the zero defaults untouched.
    obs::RunManifest untouched;
    untouched.captureKernelMetrics(obs::MetricsSnapshot{});
    EXPECT_EQ(untouched.kernel_metrics, obs::BatchKernelMetrics{});
}

TEST(RunManifestTest, LiveBatchRunPopulatesKernelMetrics)
{
    // End-to-end: a real batch-path Monte-Carlo run with metrics on
    // must surface nonzero batch counters through the manifest.
    obs::setMetricsEnabled(true);
    const UncertaintyAnalysis analysis(defaultTechnologyDb());
    UncertaintyAnalysis::Options options;
    options.samples = 32;
    options.parallel.threads = 1;
    analysis.sampleTtm(designs::a11("7nm"), 10e6, {}, options);
    obs::RunManifest manifest;
    manifest.captureKernelMetrics(obs::snapshotMetrics());
    obs::setMetricsEnabled(false);

    EXPECT_GT(manifest.kernel_metrics.batches, 0u);
    EXPECT_GE(manifest.kernel_metrics.samples, 32u);
    EXPECT_GT(manifest.kernel_metrics.mean_ns_per_sample, 0.0);
}

} // namespace
} // namespace ttmcas
