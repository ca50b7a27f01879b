#include "opt/split_optimizer.hh"

#include <gtest/gtest.h>

#include "core/reference_designs.hh"
#include "support/error.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

class SplitPlannerTest : public ::testing::Test
{
  protected:
    SplitPlannerTest()
        : planner(TtmModel(defaultTechnologyDb(), makeModelOptions()),
                  CostModel(defaultTechnologyDb()), makeOptions())
    {}

    static TtmModel::Options
    makeModelOptions()
    {
        TtmModel::Options options;
        options.tapeout_engineers = kRavenTapeoutEngineers;
        return options;
    }

    static SplitPlanner::Options
    makeOptions()
    {
        SplitPlanner::Options options;
        // Coarser sweep keeps the tests fast; 5% steps.
        for (int percent = 5; percent <= 100; percent += 5)
            options.fractions.push_back(percent / 100.0);
        return options;
    }

    static ChipDesign
    raven(const std::string& process)
    {
        return designs::ravenMulticore(process);
    }

    SplitPlanner planner;
    double n = 1e9; // paper Section 7: one billion chips
};

TEST_F(SplitPlannerTest, FullPrimaryFractionEqualsSinglePipeline)
{
    const TtmModel model(defaultTechnologyDb(), makeModelOptions());
    const double single =
        model.evaluate(raven("28nm"), n).total().value();
    EXPECT_NEAR(planner.ttm(raven, n, "28nm", "40nm", 1.0).value(),
                single, 1e-9);
}

TEST_F(SplitPlannerTest, CombinedTtmIsMaxOfPipelines)
{
    const TtmModel model(defaultTechnologyDb(), makeModelOptions());
    const double f = 0.6;
    const double primary =
        model.evaluate(raven("28nm"), n * f).total().value();
    const double secondary =
        model.evaluate(raven("40nm"), n * (1.0 - f)).total().value();
    EXPECT_NEAR(planner.ttm(raven, n, "28nm", "40nm", f).value(),
                std::max(primary, secondary), 1e-9);
}

TEST_F(SplitPlannerTest, SplittingNeverSlowerThanSlowestSingle)
{
    const double split =
        planner.ttm(raven, n, "250nm", "180nm", 0.5).value();
    const double single =
        planner.ttm(raven, n, "250nm", "", 1.0).value();
    EXPECT_LE(split, single);
}

TEST_F(SplitPlannerTest, CostAddsBothPipelines)
{
    const CostModel costs(defaultTechnologyDb());
    const double f = 0.5;
    const double expected =
        costs.evaluate(raven("28nm"), n * f).total().value() +
        costs.evaluate(raven("40nm"), n * (1.0 - f)).total().value();
    EXPECT_NEAR(planner.cost(raven, n, "28nm", "40nm", f).value(),
                expected, 1.0);
    // Two tapeouts/masks: a split costs more than the bigger single run
    // minus volume effects; at minimum it exceeds single-node NRE.
    EXPECT_GT(planner.cost(raven, n, "28nm", "40nm", 0.5).value(),
              0.99 * costs.evaluate(raven("28nm"), n).total().value());
}

TEST_F(SplitPlannerTest, OptimalSplitIsMoreAgileThanSingleProcess)
{
    // Section 7's headline: the CAS-optimal two-process plan is
    // substantially more agile than the best single process (the paper
    // reports 47% for the fastest split). Note an *arbitrary* split
    // fraction need not beat a single node — agility peaks where the
    // two pipelines balance.
    const double single_cas = planner.cas(raven, n, "28nm", "", 1.0);
    const ProductionPlan best =
        planner.optimizeCas(raven, n, "28nm", "40nm");
    EXPECT_GT(best.cas, single_cas * 1.2);
}

TEST_F(SplitPlannerTest, SinglePlanMatchesCasModel)
{
    const ProductionPlan plan =
        planner.singleProcessPlan(raven, n, "28nm");
    EXPECT_TRUE(plan.singleProcess());
    EXPECT_DOUBLE_EQ(plan.primary_fraction, 1.0);
    const CasModel cas(TtmModel(defaultTechnologyDb(),
                                makeModelOptions()));
    EXPECT_NEAR(plan.cas, cas.cas(raven("28nm"), n), 1e-6);
}

TEST_F(SplitPlannerTest, OptimizeCasMaximizesAmongNearFastestPlans)
{
    const ProductionPlan best =
        planner.optimizeCas(raven, n, "28nm", "40nm");
    // Find the fastest TTM over the sweep; the chosen plan must be
    // within the planner's slack of it...
    double min_ttm = 0.0;
    bool first = true;
    for (double f : makeOptions().fractions) {
        const double ttm =
            planner.ttm(raven, n, "28nm", "40nm", f).value();
        if (first || ttm < min_ttm)
            min_ttm = ttm;
        first = false;
    }
    EXPECT_LE(best.ttm.value(), min_ttm * 1.01 + 1e-9);
    // ...and beat every probe fraction that also satisfies the limit.
    for (double f : {0.25, 0.5, 0.75, 1.0}) {
        if (planner.ttm(raven, n, "28nm", "40nm", f).value() >
            min_ttm * 1.01)
            continue;
        EXPECT_GE(best.cas + 1e-12,
                  planner.cas(raven, n, "28nm", "40nm", f));
    }
    EXPECT_GT(best.ttm.value(), 0.0);
    EXPECT_GT(best.cost.value(), 0.0);
    EXPECT_EQ(best.primary, "28nm");
}

TEST_F(SplitPlannerTest, TtmConstraintRejectsLatencyShieldedSplits)
{
    // Pairing a 28nm run with a token batch on the longer-latency 14nm
    // line makes TTM *insensitive* to wafer rates (the binding pipeline
    // is latency-dominated), which sends raw Eq. 8 CAS to absurd
    // values while strictly worsening TTM. The default TTM slack must
    // reject such plans.
    const ProductionPlan plan =
        planner.optimizeCas(raven, n, "28nm", "14nm");
    const double single_ttm =
        planner.ttm(raven, n, "28nm", "", 1.0).value();
    EXPECT_LE(plan.ttm.value(), single_ttm * 1.011);
}

TEST_F(SplitPlannerTest, OptimalSplitUsesBothHighCapacityNodes)
{
    // 28nm + 40nm have the two highest wafer rates: the CAS-optimal
    // split should genuinely use both (interior fraction).
    const ProductionPlan best =
        planner.optimizeCas(raven, n, "28nm", "40nm");
    EXPECT_FALSE(best.singleProcess());
    EXPECT_LT(best.primary_fraction, 1.0);
    EXPECT_GT(best.primary_fraction, 0.0);
}

TEST_F(SplitPlannerTest, MarketConditionsFlowThrough)
{
    MarketConditions constrained;
    constrained.setCapacityFactor("28nm", 0.5);
    const double full =
        planner.ttm(raven, n, "28nm", "40nm", 0.8).value();
    const double cut =
        planner.ttm(raven, n, "28nm", "40nm", 0.8, constrained).value();
    EXPECT_GT(cut, full);
}

TEST_F(SplitPlannerTest, RejectsInvalidArguments)
{
    EXPECT_THROW(planner.ttm(raven, n, "28nm", "40nm", 0.0), ModelError);
    EXPECT_THROW(planner.ttm(raven, n, "28nm", "40nm", 1.1), ModelError);
    EXPECT_THROW(planner.ttm(raven, n, "28nm", "", 0.5), ModelError);
    EXPECT_THROW(planner.optimizeCas(raven, n, "28nm", "28nm"),
                 ModelError);
}

TEST(SplitPlannerConstructionTest, RejectsBadOptions)
{
    SplitPlanner::Options bad_norm;
    bad_norm.cas_normalization = 0.0;
    EXPECT_THROW(SplitPlanner(TtmModel(defaultTechnologyDb()),
                              CostModel(defaultTechnologyDb()), bad_norm),
                 ModelError);
    SplitPlanner::Options bad_slack;
    bad_slack.ttm_slack = -0.01;
    EXPECT_THROW(SplitPlanner(TtmModel(defaultTechnologyDb()),
                              CostModel(defaultTechnologyDb()), bad_slack),
                 ModelError);
}

} // namespace
} // namespace ttmcas
