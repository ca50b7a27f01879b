/**
 * @file
 * Chiplet Pareto explorer contracts (opt/chiplet_explorer.hh):
 *
 *  - one sweep produces bitwise-identical ChipletParetoResults at 1
 *    and 8 threads and on the batch vs scalar evaluation paths;
 *  - the frontier is exactly the non-dominated set under
 *    (min TTM, max CAS, min cost) and every other point is dominated;
 *  - a run resumed from a checkpoint — full or partial — reproduces
 *    the straight run bit-for-bit;
 *  - candidateAt is the documented mixed-radix decode (split fastest,
 *    partitions slowest) and partitionDesign splits the transistor
 *    budget with one tapeout per chiplet type.
 *
 * Runs under `ctest -L econ` (ASan/UBSan and TSan CI jobs).
 */

#include <gtest/gtest.h>

#include "core/cas.hh"
#include "core/design.hh"
#include "core/reference_designs.hh"
#include "econ/cost_model.hh"
#include "opt/chiplet_explorer.hh"
#include "opt/pareto.hh"
#include "opt/split_optimizer.hh"
#include "support/checkpoint.hh"
#include "support/error.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

class ChipletExplorerTest : public ::testing::Test
{
  protected:
    ChipletExplorerTest()
        : db(defaultTechnologyDb()), explorer(db),
          base(makeMonolithicDesign("chiplet-test", "7nm", 2.0e9, 2.0e8,
                                    Weeks(10.0)))
    {
    }

    /** 3 partitions x 2 nodes x 2 redundancy x 2 splits = 24. */
    ChipletSweepSpec testSpec() const
    {
        ChipletSweepSpec spec;
        spec.partitions = {1, 2, 4};
        spec.nodes = {"7nm", "12nm"};
        spec.redundancy = {0, 1};
        spec.split_fractions = {0.6, 1.0};
        spec.secondary_node = "12nm";
        return spec;
    }

    ChipletParetoResult run(const ChipletExplorerOptions& options) const
    {
        return explorer.run(base, 1.0e7, MarketConditions{}, testSpec(),
                            options);
    }

    TechnologyDb db;
    ChipletExplorer explorer;
    ChipDesign base;
};

TEST_F(ChipletExplorerTest, SerialAndEightThreadsAreBitwiseIdentical)
{
    ChipletExplorerOptions serial;
    serial.parallel = ParallelConfig::serial();
    ChipletExplorerOptions threaded;
    threaded.parallel = ParallelConfig{8, 2};

    const ChipletParetoResult a = run(serial);
    const ChipletParetoResult b = run(threaded);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.candidates_requested, 24u);
    EXPECT_EQ(a.candidates_completed, 24u);
}

TEST_F(ChipletExplorerTest, BatchAndScalarPathsAreBitwiseIdentical)
{
    ChipletExplorerOptions batch;
    batch.eval_path = EvalPath::kBatch;
    ChipletExplorerOptions scalar;
    scalar.eval_path = EvalPath::kScalar;
    EXPECT_TRUE(run(batch) == run(scalar));
}

TEST_F(ChipletExplorerTest, FrontierIsExactlyTheNonDominatedSet)
{
    const ChipletParetoResult result = run(ChipletExplorerOptions{});
    ASSERT_GE(result.frontier.size(), 2u);
    ASSERT_EQ(result.points.size(), 24u);

    const std::vector<Objective> directions = {
        Objective::Minimize, Objective::Maximize, Objective::Minimize};
    const auto score = [](const ChipletPoint& point) {
        return std::vector<double>{point.ttm_weeks, point.cas,
                                   point.cost};
    };

    std::vector<bool> on_front(result.points.size(), false);
    for (const std::size_t idx : result.frontier) {
        ASSERT_LT(idx, result.points.size());
        on_front[idx] = true;
    }

    for (std::size_t i = 0; i < result.points.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < result.points.size(); ++j)
            if (j != i && dominates(score(result.points[j]),
                                    score(result.points[i]),
                                    directions))
                dominated = true;
        // Frontier points are never dominated; everything off the
        // frontier is dominated by someone.
        EXPECT_EQ(dominated, !on_front[i]) << "point " << i;
    }
}

TEST_F(ChipletExplorerTest, ResumeFromFullCheckpointReproducesBitwise)
{
    SweepCheckpoint checkpoint;
    ChipletExplorerOptions straight;
    straight.checkpoint = &checkpoint;
    const ChipletParetoResult reference = run(straight);
    EXPECT_EQ(checkpoint.completedCount(), 3u * 24u);

    ChipletExplorerOptions resumed;
    resumed.resume_from = &checkpoint;
    EXPECT_TRUE(reference == run(resumed));
}

TEST_F(ChipletExplorerTest, ResumeFromPartialCheckpointReproducesBitwise)
{
    SweepCheckpoint full;
    ChipletExplorerOptions straight;
    straight.checkpoint = &full;
    const ChipletParetoResult reference = run(straight);

    // A kill mid-run leaves an arbitrary set of recorded triples;
    // model it by replaying the first half of the points into a
    // fresh checkpoint.
    SweepCheckpoint partial;
    partial.bind(kChipletKernelName, straight.seed, 3 * 24);
    for (std::size_t point = 0; point < 3 * 12; ++point)
        if (full.has(point))
            partial.record(point, full.value(point));

    ChipletExplorerOptions resumed;
    resumed.resume_from = &partial;
    EXPECT_TRUE(reference == run(resumed));
}

TEST_F(ChipletExplorerTest, MismatchedCheckpointIsRejected)
{
    SweepCheckpoint foreign;
    foreign.bind("ensemble_ttm", 2023, 3 * 24);
    ChipletExplorerOptions options;
    options.resume_from = &foreign;
    EXPECT_THROW(run(options), ModelError);

    SweepCheckpoint reseeded;
    reseeded.bind(kChipletKernelName, 999, 3 * 24);
    options.resume_from = &reseeded;
    EXPECT_THROW(run(options), ModelError);
}

TEST(ChipletCandidateDecode, SplitFastestPartitionsSlowest)
{
    ChipletSweepSpec spec;
    spec.partitions = {1, 2};
    spec.nodes = {"7nm", "12nm"};
    spec.redundancy = {0, 1};
    spec.split_fractions = {0.5, 1.0};
    spec.secondary_node = "12nm";
    ASSERT_EQ(spec.candidateCount(), 16u);

    const ChipletCandidate first = candidateAt(spec, 0);
    EXPECT_EQ(first,
              (ChipletCandidate{1, "7nm", 0, 0.5}));
    // Stride 1 flips the split, 2 the redundancy, 4 the node, 8 the
    // partition count.
    EXPECT_EQ(candidateAt(spec, 1),
              (ChipletCandidate{1, "7nm", 0, 1.0}));
    EXPECT_EQ(candidateAt(spec, 2),
              (ChipletCandidate{1, "7nm", 1, 0.5}));
    EXPECT_EQ(candidateAt(spec, 4),
              (ChipletCandidate{1, "12nm", 0, 0.5}));
    EXPECT_EQ(candidateAt(spec, 8),
              (ChipletCandidate{2, "7nm", 0, 0.5}));
    EXPECT_EQ(candidateAt(spec, 15),
              (ChipletCandidate{2, "12nm", 1, 1.0}));
}

TEST(ChipletSweepSpecValidation, ReportsEveryProblemAtOnce)
{
    ChipletSweepSpec spec;
    spec.partitions = {0};
    spec.nodes = {};
    spec.redundancy = {-1};
    spec.split_fractions = {0.5}; // < 1 without a secondary node
    EXPECT_GE(spec.violations().size(), 4u);

    ChipletSweepSpec valid = ChipletSweepSpec::defaultsFor({"7nm"});
    EXPECT_TRUE(valid.violations().empty());
    EXPECT_EQ(valid.nodes, std::vector<std::string>{"7nm"});
}

TEST(ChipletSweepSpecValidation, GridExplosionIsRejected)
{
    ChipletSweepSpec spec = ChipletSweepSpec::defaultsFor({"7nm"});
    spec.partitions.clear();
    for (int p = 1; p <= 80; ++p)
        spec.partitions.push_back(p);
    spec.redundancy.clear();
    for (int k = 0; k <= 16; ++k)
        spec.redundancy.push_back(k);
    spec.split_fractions.clear();
    for (int s = 1; s <= 10; ++s)
        spec.split_fractions.push_back(s / 10.0);
    spec.secondary_node = "7nm";
    // 80 x 1 x 17 x 10 = 13600 > kMaxChipletCandidates.
    EXPECT_FALSE(spec.violations().empty());
}

TEST_F(ChipletExplorerTest, UnknownNodesAreRejectedUpFront)
{
    ChipletSweepSpec spec = testSpec();
    spec.nodes.push_back("3nm-imaginary");
    EXPECT_THROW(explorer.run(base, 1.0e7, MarketConditions{}, spec,
                              ChipletExplorerOptions{}),
                 ModelError);

    ChipletSweepSpec bad_secondary = testSpec();
    bad_secondary.secondary_node = "not-a-node";
    EXPECT_THROW(explorer.run(base, 1.0e7, MarketConditions{},
                              bad_secondary, ChipletExplorerOptions{}),
                 ModelError);
}

TEST(ChipletPartitionDesign, SplitsBudgetWithOneTapeoutPerType)
{
    const ChipDesign base = makeMonolithicDesign(
        "mono", "7nm", 4.0e9, 8.0e8, Weeks(12.0));
    const ChipDesign split =
        ChipletExplorer::partitionDesign(base, 4, "12nm");

    ASSERT_EQ(split.dies.size(), 1u);
    EXPECT_EQ(split.dies[0].process, "12nm");
    EXPECT_DOUBLE_EQ(split.dies[0].count_per_package, 4.0);
    EXPECT_DOUBLE_EQ(split.dies[0].total_transistors, 1.0e9);
    EXPECT_DOUBLE_EQ(split.dies[0].unique_transistors, 2.0e8);
    EXPECT_DOUBLE_EQ(split.totalTransistorsPerChip(), 4.0e9);
    EXPECT_DOUBLE_EQ(split.design_time.value(), 12.0);

    // Unique transistors clamp to the per-chiplet total.
    ChipDesign dense = base;
    dense.dies[0].unique_transistors = 4.0e9;
    const ChipDesign clamped =
        ChipletExplorer::partitionDesign(dense, 4, "7nm");
    EXPECT_DOUBLE_EQ(clamped.dies[0].unique_transistors, 1.0e9);
}

/**
 * The explorer's split CAS is not SplitPlanner::cas. The explorer adds
 * the Eq. 8 slope sums of the two pipelines, each differentiated on
 * its own (harmonic CAS). SplitPlanner differentiates the combined
 * max(TTM_p, TTM_s), so only the binding pipeline's slope counts. For
 * A11 on 7nm with 20% second-sourced on 14nm the two rules differ by
 * a factor of 1.7; both values are pinned here.
 */
TEST(ChipletSplitCas, ExplorerRuleIsHarmonicNotSplitPlanner)
{
    const TechnologyDb db = defaultTechnologyDb();
    const double n_chips = 1e7;
    const double fraction = 0.8;

    ChipletSweepSpec spec;
    spec.partitions = {1};
    spec.nodes = {"7nm"};
    spec.redundancy = {0};
    spec.split_fractions = {fraction};
    spec.secondary_node = "14nm";
    ChipletExplorerOptions options;
    options.parallel = ParallelConfig::serial();
    const ChipletParetoResult result = ChipletExplorer(db).run(
        designs::a11("7nm"), n_chips, MarketConditions{}, spec, options);
    ASSERT_EQ(result.points.size(), 1u);
    const double explorer_cas = result.points[0].cas;

    const CasModel cas{TtmModel(db)};
    const double primary =
        cas.cas(designs::a11("7nm"), fraction * n_chips);
    const double secondary =
        cas.cas(designs::a11("14nm"), (1.0 - fraction) * n_chips);
    EXPECT_DOUBLE_EQ(explorer_cas, 1.0 / (1.0 / primary + 1.0 / secondary));

    const SplitPlanner planner{TtmModel(db), CostModel(db)};
    const double planner_cas = planner.cas(
        [](const std::string& process) { return designs::a11(process); },
        n_chips, "7nm", "14nm", fraction);

    EXPECT_NEAR(explorer_cas, 128.01, 0.005);
    EXPECT_NEAR(planner_cas, 217.53, 0.005);
}

} // namespace
} // namespace ttmcas
