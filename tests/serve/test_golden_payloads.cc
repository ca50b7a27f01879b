/**
 * @file
 * Golden served payloads: a fixed request set covering all six
 * evaluation kinds (the multi-node Zen 2 design included) must keep
 * the payload bytes and cache keys recorded below. The digests are
 * FNV-1a 64 of each payload and key. A change that moves any number,
 * message or key by one byte fails here, so a speed-up of the
 * evaluator cannot silently change what the server answers.
 *
 * The clean and pre-cancelled digests were recorded with the
 * evaluator whose capacity_sweep looped the scalar model per grid
 * point, before the sweep moved onto the compiled point-driver kernel.
 * The fault-injected sweep is pinned by structure instead, because
 * that loop never consulted the injector: every armed point must fail
 * with its own error object, and every other point must equal the
 * clean run's point byte for byte.
 *
 * The three larger ensemble payloads, the cold-mix-sized chiplet sweep
 * and the 1000-sample mc_ttm were recorded from the evaluator whose
 * ensemble paths ran the scalar sample -> lower -> TimelineTtmModel
 * chain, whose summaries fully sorted their samples and whose Pareto
 * front compared every pair of candidates.
 *
 * The CAS-bearing digests (mc_cas, capacity_sweep, ensemble_ttm and
 * chiplet_pareto payloads and keys) were recorded again when Eq. 8's
 * slope became the closed form instead of a central difference. Every
 * CAS number moved by at most 1.001e-6 relative, no TTM or cost
 * number moved, and those kinds' keys carry a tag so that no cached
 * central-difference entry is served. The mc_ttm and sobol_ttm digests
 * are the earlier recordings, unchanged.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "serve/server.hh"
#include "stats/disruption.hh"
#include "stats/fault_injection.hh"
#include "support/cancel.hh"
#include "support/json.hh"
#include "support/metrics.hh"
#include "tech/default_dataset.hh"

namespace ttmcas::serve {
namespace {

const char* const kZen2 =
    R"({"name":"Zen 2","design_weeks":0,"dies":[)"
    R"({"name":"compute","process":"7nm","total_transistors":3800000000,)"
    R"("unique_transistors":475000000,"count_per_package":2,"area_mm2":74},)"
    R"({"name":"io","process":"12nm","total_transistors":2100000000,)"
    R"("unique_transistors":523000000,"count_per_package":1,)"
    R"("area_mm2":125}]})";

const char* const kA11At7 =
    R"({"name":"A11@7nm","design_weeks":2,"dies":[)"
    R"({"name":"a11-soc","process":"7nm","total_transistors":4300000000,)"
    R"("unique_transistors":514000000,"count_per_package":1}]})";

const char* const kA11At14 =
    R"({"name":"A11@14nm","design_weeks":2,"dies":[)"
    R"({"name":"a11-soc","process":"14nm","total_transistors":4300000000,)"
    R"("unique_transistors":514000000,"count_per_package":1}]})";

const char* const kRaven =
    R"({"name":"raven-multicore@28nm","design_weeks":2,"dies":[)"
    R"({"name":"raven-soc","process":"28nm","total_transistors":57000000,)"
    R"("unique_transistors":9750000,"count_per_package":1,)"
    R"("min_area_mm2":1}]})";

/** Per-node capacity overrides and queues the sweep must replace. */
const char* const kZen2SweepMarket =
    R"({"global_capacity":0.7,"capacity":{"7nm":0.5,"12nm":0.9},)"
    R"("queue_weeks":{"12nm":1.5},"queue_wafers":{"7nm":500}})";

std::string
line(const char* kind, const char* design, const std::string& market,
     const std::string& rest)
{
    return std::string(R"({"id":"g","kind":")") + kind +
           R"(","design":)" + design + R"(,"market":)" + market + "," +
           rest + "}";
}

std::string
sweepGrid()
{
    std::string grid = R"("grid":[)";
    for (int i = 1; i <= 24; ++i) {
        if (i > 1)
            grid += ",";
        grid += jsonNumber(0.0625 * i);
    }
    return grid + "]";
}

std::string
zen2SweepLine()
{
    return line("capacity_sweep", kZen2, kZen2SweepMarket,
                R"("n_chips":20000000,)" + sweepGrid());
}

std::string
zen2SobolLine()
{
    return line("sobol_ttm", kZen2, R"({"global_capacity":0.8})",
                R"("n_chips":20000000,"seed":13,"samples":40,"band":0.2)");
}

/** A cold-mix-sized chiplet sweep: 4 x 3 x 4 x 3 = 144 candidates. */
std::string
chipletColdMixLine()
{
    return line("chiplet_pareto", kA11At7, R"({"global_capacity":0.75})",
                R"("n_chips":30000000,"seed":18,"chiplet":{)"
                R"("partitions":[1,2,3,4],"nodes":["7nm","12nm","14nm"],)"
                R"("redundancy":[0,1,2,3],"split_fractions":[1,0.8,0.6],)"
                R"("secondary_node":"14nm"})");
}

/**
 * Zen 2 under a spec that disrupts only its 7nm node (12nm is absent
 * from spec.nodes): sticky zero-capacity outages plus clustered Hawkes
 * shocks, with queue backlogs on both nodes.
 */
std::string
zen2ShockedEnsembleLine()
{
    return line(
        "ensemble_ttm", kZen2,
        R"({"global_capacity":0.8,"queue_weeks":{"7nm":3,"12nm":1.25}})",
        R"("n_chips":40000000,"seed":20,"samples":64,"ensemble":{)"
        R"("horizon_weeks":78,"step_weeks":1.5,"nodes":{"7nm":{)"
        R"("markov":{"transition":[[0.9,0.06,0.04],[0.1,0.8,0.1],)"
        R"([0.05,0.25,0.7]],"capacity":[1,0.5,0],)"
        R"("recovery_ramp_weeks":6,"recovery_ramp_steps":3},)"
        R"("hawkes":{"mu":0.08,"alpha":0.6,"beta":0.5,)"
        R"("shock_depth":[0.3,0.9],"shock_weeks":3}}}})");
}

const char* const kEnsembleA11Name = "ensemble_ttm a11 96 paths";
const char* const kEnsembleZen2Name = "ensemble_ttm zen2 queued";
const char* const kEnsembleShockedName = "ensemble_ttm zen2 7nm shocks";

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
fnv1a(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hex(hash);
}

EvalRequest
parse(const std::string& text)
{
    const ParsedRequest parsed = parseRequestLine(text, ServeLimits{});
    EXPECT_TRUE(parsed.ok) << parsed.error.message << "\n" << text;
    return parsed.request;
}

struct Golden
{
    const char* name;
    std::string line;
    bool cancelled;
    const char* status;
    const char* payload;
    const char* key;
};

std::vector<Golden>
goldenSet()
{
    return {
        {"mc_ttm zen2",
         line("mc_ttm", kZen2,
              R"({"global_capacity":0.8,"capacity":{"12nm":0.6},)"
              R"("queue_weeks":{"7nm":2}})",
              R"("n_chips":20000000,"seed":11,"samples":64)"),
         false, "ok", "b8853989e8f2a883", "3c9b912658d6ee7b"},
        {"mc_cas a11", line("mc_cas", kA11At7, R"({"global_capacity":0.9})",
                            R"("n_chips":10000000,"seed":12,"samples":48)"),
         false, "ok", "c05b8ae507d4457d", "b3607e6a19803623"},
        {"sobol_ttm zen2", zen2SobolLine(), false, "ok", "4fafcea2eed31f8c",
         "f460c082176cb2bc"},
        {"sobol_ttm a11", line("sobol_ttm", kA11At14, "{}",
                               R"("n_chips":5000000,"seed":14,"samples":64)"),
         false, "ok", "495e611b972b47ce", "2ffa2d9721a0aa09"},
        {"capacity_sweep zen2", zen2SweepLine(), false, "ok",
         "05b227b8a21f99b2", "7903b11d4d4829fc"},
        {"capacity_sweep a11 default grid",
         line("capacity_sweep", kA11At7, R"({"global_capacity":0.6})",
              R"("n_chips":30000000)"),
         false, "ok", "88937aa269bbab09", "480cdc42d645e023"},
        {"capacity_sweep raven",
         line("capacity_sweep", kRaven, "{}",
              R"("n_chips":1000000,"grid":[0.05,0.3,0.75,1,1.25,2.5])"),
         false, "ok", "0701e2a034433d81", "b3a83279860ac1fa"},
        {"ensemble_ttm zen2",
         line("ensemble_ttm", kZen2, R"({"global_capacity":0.9})",
              R"("n_chips":20000000,"seed":15,"samples":6)"),
         false, "ok", "4dbb04100e3bd3ec", "f92610cc93f67f5d"},
        {"chiplet_pareto a11",
         line("chiplet_pareto", kA11At7, "{}",
              R"("n_chips":10000000,"seed":16,"chiplet":{)"
              R"("partitions":[1,2],"nodes":["7nm","14nm"],)"
              R"("redundancy":[0,1],"split_fractions":[1,0.8],)"
              R"("secondary_node":"14nm"})"),
         false, "ok", "86978511dd4b09ec", "b89b8a76e6078e53"},
        {kEnsembleA11Name,
         line("ensemble_ttm", kA11At7, R"({"global_capacity":0.85})",
              R"("n_chips":25000000,"seed":17,"samples":96)"),
         false, "ok", "8ecb804f9aaccedc", "9022a2a1abbc5be9"},
        {kEnsembleZen2Name,
         line("ensemble_ttm", kZen2,
              R"({"global_capacity":0.9,"capacity":{"12nm":0.7},)"
              R"("queue_weeks":{"7nm":2,"12nm":1.5}})",
              R"("n_chips":20000000,"seed":19,"samples":64)"),
         false, "ok", "ce920810a7642aa4", "c18f8822e5368c16"},
        {kEnsembleShockedName, zen2ShockedEnsembleLine(), false, "ok",
         "828cef05a2207c70", "12b6562f6305bc18"},
        {"chiplet_pareto a11 cold-mix size", chipletColdMixLine(), false,
         "ok", "aaf614b317fb0d63", "32e6b650df82b1cb"},
        // 1000 samples: p5/p50/p95 sit at ranks 49.95, 499.5 and
        // 949.05, so each one interpolates between two order statistics.
        {"mc_ttm a11 1000 samples",
         line("mc_ttm", kA11At14, R"({"global_capacity":0.7})",
              R"("n_chips":15000000,"seed":23,"samples":1000)"),
         false, "ok", "6acb2f3a61374879", "f3897e9bc5b37243"},
        {"capacity_sweep zen2 pre-cancelled", zen2SweepLine(), true,
         "cancelled", "74b6084d4d6c4a20", "7903b11d4d4829fc"},
        {"sobol_ttm zen2 pre-cancelled", zen2SobolLine(), true, "cancelled",
         "5b733dc60e00a73d", "f460c082176cb2bc"},
    };
}

TEST(GoldenPayloadTest, PayloadsAndKeysMatchTheRecordedDigests)
{
    const Evaluator evaluator(defaultTechnologyDb());
    std::string actual;
    for (const Golden& golden : goldenSet()) {
        const EvalRequest request = parse(golden.line);
        CancellationToken token;
        if (golden.cancelled)
            token.requestCancel();
        const EvalOutcome outcome = evaluator.evaluate(request, token);
        const std::string payload = fnv1a(outcome.payload);
        const std::string key = fnv1a(Evaluator::cacheKey(request));
        EXPECT_EQ(outcome.status, golden.status) << golden.name;
        EXPECT_EQ(payload, golden.payload) << golden.name;
        EXPECT_EQ(key, golden.key) << golden.name;
        actual += std::string("  ") + golden.name + ": " + outcome.status +
                  " " + payload + " " + key + "\n";
    }
    if (HasFailure())
        ADD_FAILURE() << "actual digests:\n" << actual;
}

TEST(GoldenPayloadTest, EnsemblePayloadsCoverTheOutageGroup)
{
    // The ensemble digests only pin the per-path chain when paths land
    // in every branch of it, zero-capacity outages included.
    const Evaluator evaluator(defaultTechnologyDb());
    for (const Golden& golden : goldenSet()) {
        const std::string name = golden.name;
        if (name != kEnsembleA11Name && name != kEnsembleZen2Name &&
            name != kEnsembleShockedName)
            continue;
        const EvalOutcome outcome =
            evaluator.evaluate(parse(golden.line), CancellationToken{});
        const JsonValue doc = parseJson(outcome.payload);
        const JsonValue& ensemble = doc.at("ensemble");
        EXPECT_EQ(ensemble.at("paths_completed").asNumber(),
                  ensemble.at("paths_requested").asNumber())
            << name;
        EXPECT_GE(ensemble.at("paths_requested").asNumber(), 64.0) << name;
        const JsonValue& outage = ensemble.at("regimes").asArray().at(
            static_cast<std::size_t>(Regime::Outage));
        EXPECT_EQ(outage.at("regime").asString(), "outage") << name;
        EXPECT_GT(outage.at("count").asNumber(), 0.0) << name;
    }
}

TEST(GoldenPayloadTest, ServingEveryKindStartsNoPoolThread)
{
    // ttm_serve evaluates with ParallelConfig::serial(), so no request
    // kind runs a pooled loop and a served session starts no pool
    // thread: pool.threads_started and pool.chunk_size stay where they
    // were (both are recorded only on the pooled path).
    obs::setMetricsEnabled(true);
    const auto pooled = [] {
        const obs::MetricsSnapshot snapshot = obs::snapshotMetrics();
        std::uint64_t total = 0;
        for (const auto& counter : snapshot.counters)
            if (counter.name == "pool.threads_started")
                total += counter.value;
        for (const auto& histogram : snapshot.histograms)
            if (histogram.name == "pool.chunk_size")
                total += histogram.count;
        return total;
    };
    const std::uint64_t before = pooled();
    EvalServer server(defaultTechnologyDb(), ServeOptions{});
    for (const Golden& golden : goldenSet()) {
        if (golden.cancelled)
            continue;
        const std::string reply = server.handleLine(golden.line);
        EXPECT_NE(reply.find(R"("status":"ok")"), std::string::npos)
            << golden.name << ": " << reply;
    }
    EXPECT_EQ(pooled(), before);
    obs::setMetricsEnabled(false);
}

TEST(GoldenPayloadTest, InjectedSweepFaultsFailOnlyTheirOwnPoints)
{
    const EvalRequest request = parse(zen2SweepLine());
    const CancellationToken token;
    const EvalOutcome clean =
        Evaluator(defaultTechnologyDb()).evaluate(request, token);

    FaultInjector::Options fault;
    fault.probability = 0.3;
    const FaultInjector injector(fault);
    const std::size_t points = request.grid.size();
    ASSERT_GT(injector.armedCount(points), 0u);
    ASSERT_LT(injector.armedCount(points), points);
    const EvalOutcome injected =
        Evaluator(defaultTechnologyDb(), injector).evaluate(request, token);

    EXPECT_EQ(injected.status, "ok");
    EXPECT_FALSE(injected.complete);
    EXPECT_EQ(injected.failures.failureCount(), injector.armedCount(points));

    const JsonValue clean_doc = parseJson(clean.payload);
    const JsonValue injected_doc = parseJson(injected.payload);
    const auto& clean_points = clean_doc.at("points").asArray();
    const auto& injected_points = injected_doc.at("points").asArray();
    ASSERT_EQ(clean_points.size(), points);
    ASSERT_EQ(injected_points.size(), points);
    for (std::size_t i = 0; i < points; ++i) {
        const JsonValue& point = injected_points[i];
        EXPECT_EQ(point.at("capacity").asNumber(), request.grid[i]);
        if (injector.armedAt(i)) {
            ASSERT_TRUE(point.has("error")) << "point " << i;
            const std::string code = point.at("error").at("code").asString();
            EXPECT_TRUE(code == "injected-fault" ||
                        code == "non-finite-output")
                << code;
        } else {
            ASSERT_FALSE(point.has("error")) << "point " << i;
            EXPECT_EQ(point.at("ttm_weeks").asNumber(),
                      clean_points[i].at("ttm_weeks").asNumber());
            EXPECT_EQ(point.at("cas").asNumber(),
                      clean_points[i].at("cas").asNumber());
        }
    }
    const JsonValue& failures = injected_doc.at("failures");
    EXPECT_EQ(failures.at("points").asNumber(), static_cast<double>(points));
    EXPECT_EQ(failures.at("failed").asNumber(),
              static_cast<double>(injector.armedCount(points)));
}

} // namespace
} // namespace ttmcas::serve
