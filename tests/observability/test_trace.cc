#include "support/trace.hh"

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/reference_designs.hh"
#include "core/uncertainty.hh"
#include "econ/cost_model.hh"
#include "opt/cache_optimizer.hh"
#include "opt/portfolio.hh"
#include "opt/split_optimizer.hh"
#include "stats/distributions.hh"
#include "stats/sobol.hh"
#include "support/json.hh"
#include "support/threadpool.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

/** Restores the disabled default and clears the buffer per test. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::setTracingEnabled(false);
        obs::clearTrace();
    }
    void TearDown() override
    {
        obs::setTracingEnabled(false);
        obs::clearTrace();
    }
};

TEST_F(TraceTest, DisabledSpansRecordNothing)
{
    {
        const obs::ScopedSpan span("mc", "disabled");
    }
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST_F(TraceTest, EnabledSpansRecordCompleteEvents)
{
    obs::setTracingEnabled(true);
    {
        const obs::ScopedSpan outer("opt", "outer");
        const obs::ScopedSpan inner("mc", "inner");
    }
    EXPECT_EQ(obs::traceEventCount(), 2u);
}

TEST_F(TraceTest, SpanActiveAtConstructionSurvivesDisable)
{
    // The enabled flag is latched at construction; disabling mid-span
    // must not lose or corrupt the already-open event.
    obs::setTracingEnabled(true);
    {
        const obs::ScopedSpan span("mc", "latched");
        obs::setTracingEnabled(false);
    }
    EXPECT_EQ(obs::traceEventCount(), 1u);
}

TEST_F(TraceTest, ChromeTraceJsonIsValidAndCarriesSpanFields)
{
    obs::setTracingEnabled(true);
    {
        const obs::ScopedSpan span("sobol", "sobolAnalyze");
    }
    const JsonValue document = parseJson(obs::chromeTraceJson());
    EXPECT_EQ(document.at("displayTimeUnit").asString(), "ms");
    const auto& events = document.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 1u);
    const JsonValue& event = events[0];
    EXPECT_EQ(event.at("name").asString(), "sobolAnalyze");
    EXPECT_EQ(event.at("cat").asString(), "sobol");
    EXPECT_EQ(event.at("ph").asString(), "X");
    EXPECT_DOUBLE_EQ(event.at("pid").asNumber(), 1.0);
    EXPECT_GE(event.at("tid").asNumber(), 1.0);
    EXPECT_GE(event.at("ts").asNumber(), 0.0);
    EXPECT_GE(event.at("dur").asNumber(), 0.0);
}

TEST_F(TraceTest, ConcurrentSpansAllFlush)
{
    // One span per item across 8 workers; every span must land in the
    // flushed document exactly once (the CI TSan job runs this test).
    obs::setTracingEnabled(true);
    constexpr std::size_t kSpans = 64;
    parallelFor(ParallelConfig{8, 1}, kSpans,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                        const obs::ScopedSpan span("pool", "worker_span");
                    }
                });
    EXPECT_EQ(obs::traceEventCount(), kSpans);
    const JsonValue document = parseJson(obs::chromeTraceJson());
    EXPECT_EQ(document.at("traceEvents").asArray().size(), kSpans);
}

TEST_F(TraceTest, ClearTraceDropsEverything)
{
    obs::setTracingEnabled(true);
    {
        const obs::ScopedSpan span("cli", "short");
    }
    ASSERT_GT(obs::traceEventCount(), 0u);
    obs::clearTrace();
    EXPECT_EQ(obs::traceEventCount(), 0u);
    const JsonValue document = parseJson(obs::chromeTraceJson());
    EXPECT_TRUE(document.at("traceEvents").asArray().empty());
}

/**
 * The span taxonomy of docs/OBSERVABILITY.md: each instrumented batch
 * kernel, run once on a small workload with tracing on, must open its
 * documented (cat, name) span.
 */
class SpanTaxonomyTest : public TraceTest
{
  protected:
    void SetUp() override
    {
        TraceTest::SetUp();
        obs::setTracingEnabled(true);
    }

    /** Whether a span (@p cat, @p name) was recorded. */
    static bool recorded(const std::string& cat, const std::string& name)
    {
        std::set<std::pair<std::string, std::string>> spans;
        const JsonValue document = parseJson(obs::chromeTraceJson());
        for (const JsonValue& event : document.at("traceEvents").asArray())
            spans.emplace(event.at("cat").asString(),
                          event.at("name").asString());
        return spans.count({cat, name}) == 1;
    }

    const TechnologyDb db = defaultTechnologyDb();
    const TtmModel model{db};
    const ChipDesign design = designs::a11("7nm");
};

TEST_F(SpanTaxonomyTest, MonteCarloSamplingOpensSampleTtm)
{
    UncertaintyAnalysis::Options options;
    options.samples = 64;
    UncertaintyAnalysis(db).sampleTtm(design, 1e6, {}, options);
    EXPECT_TRUE(recorded("mc", "sampleTtm"));
}

TEST_F(SpanTaxonomyTest, SobolOpensAnalyzeAndBootstrap)
{
    std::vector<std::unique_ptr<Distribution>> owned;
    std::vector<SensitivityInput> inputs;
    for (const char* name : {"x1", "x2"}) {
        owned.push_back(relativeUniform(1.0, 0.05));
        inputs.push_back({name, owned.back().get()});
    }
    SobolOptions options;
    options.base_samples = 32;
    SobolRowData rows;
    sobolAnalyze(
        inputs,
        [](const std::vector<double>& x) { return x[0] + 2.0 * x[1]; },
        options, &rows);
    sobolBootstrapCi(rows, 16);
    EXPECT_TRUE(recorded("sobol", "sobolAnalyze"));
    EXPECT_TRUE(recorded("sobol", "sobolBootstrapCi"));
}

TEST_F(SpanTaxonomyTest, CacheSweepOpensSweep)
{
    const std::vector<std::uint64_t> sizes{4096, 16384};
    const auto curve = [&](bool instruction_stream) {
        MissCurve miss;
        miss.workload = "taxonomy";
        miss.instruction_stream = instruction_stream;
        miss.sizes_bytes = sizes;
        miss.miss_rates = {0.2, 0.1};
        return miss;
    };
    const CacheSweep sweep(db, curve(true), curve(false), IpcModel{},
                           ArianeChipSpec{});
    CacheSweepOptions options;
    options.sizes_bytes = sizes;
    options.process = "7nm";
    options.n_chips = 1e6;
    sweep.sweep(options);
    EXPECT_TRUE(recorded("sweep", "CacheSweep::sweep"));
}

TEST_F(SpanTaxonomyTest, SplitPlannerOpensOptimizeCas)
{
    SplitPlanner::Options options;
    options.fractions = {0.5, 1.0};
    const SplitPlanner planner(model, CostModel(db), options);
    planner.optimizeCas(designs::a11, 1e6, "7nm", "14nm", {});
    EXPECT_TRUE(recorded("opt", "SplitPlanner::optimizeCas"));
}

TEST_F(SpanTaxonomyTest, PortfolioPlannerOpensPlan)
{
    PortfolioPlanner::Options options;
    options.candidate_nodes = {"7nm", "14nm"};
    options.max_moves = 2;
    PortfolioProduct product;
    product.name = "taxonomy";
    product.design = design;
    product.n_chips = 1e6;
    product.deadline = Weeks(1000.0);
    PortfolioPlanner(model, options).plan({product});
    EXPECT_TRUE(recorded("opt", "PortfolioPlanner::plan"));
}

} // namespace
} // namespace ttmcas
