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
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/evaluator.hh"
#include "serve/request.hh"
#include "stats/fault_injection.hh"
#include "support/cancel.hh"
#include "support/json.hh"
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
         false, "ok", "d2941d9d3b92ee0e", "6006a87a95ff2339"},
        {"sobol_ttm zen2", zen2SobolLine(), false, "ok", "4fafcea2eed31f8c",
         "f460c082176cb2bc"},
        {"sobol_ttm a11", line("sobol_ttm", kA11At14, "{}",
                               R"("n_chips":5000000,"seed":14,"samples":64)"),
         false, "ok", "495e611b972b47ce", "2ffa2d9721a0aa09"},
        {"capacity_sweep zen2", zen2SweepLine(), false, "ok",
         "90f2513f13b85c26", "749d570f07b27a80"},
        {"capacity_sweep a11 default grid",
         line("capacity_sweep", kA11At7, R"({"global_capacity":0.6})",
              R"("n_chips":30000000)"),
         false, "ok", "d0a84f5d0ecb7cad", "54ef8c85fae5a862"},
        {"capacity_sweep raven",
         line("capacity_sweep", kRaven, "{}",
              R"("n_chips":1000000,"grid":[0.05,0.3,0.75,1,1.25,2.5])"),
         false, "ok", "b0895a54a44a9c93", "7cad2a2c164d77db"},
        {"ensemble_ttm zen2",
         line("ensemble_ttm", kZen2, R"({"global_capacity":0.9})",
              R"("n_chips":20000000,"seed":15,"samples":6)"),
         false, "ok", "07f9015bdd809bba", "786b210008e8046f"},
        {"chiplet_pareto a11",
         line("chiplet_pareto", kA11At7, "{}",
              R"("n_chips":10000000,"seed":16,"chiplet":{)"
              R"("partitions":[1,2],"nodes":["7nm","14nm"],)"
              R"("redundancy":[0,1],"split_fractions":[1,0.8],)"
              R"("secondary_node":"14nm"})"),
         false, "ok", "e15f463161f14151", "2330e282037258be"},
        {"capacity_sweep zen2 pre-cancelled", zen2SweepLine(), true,
         "cancelled", "74b6084d4d6c4a20", "749d570f07b27a80"},
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
