/**
 * @file
 * The resilience contract, kernel by kernel: a fired CancellationToken
 * stops every batch kernel cleanly with partial-but-well-formed
 * results (every unevaluated point carries a structured Cancelled /
 * DeadlineExceeded diagnostic), injected faults remove exactly the
 * armed points and leave the survivors bitwise unchanged, and a run killed
 * mid-flight resumes from its checkpoint onto the exact result an
 * uninterrupted run produces — at 1 and at 8 threads.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/reference_designs.hh"
#include "core/uncertainty.hh"
#include "opt/cache_optimizer.hh"
#include "opt/portfolio.hh"
#include "opt/split_optimizer.hh"
#include "stats/fault_injection.hh"
#include "stats/sobol.hh"
#include "support/cancel.hh"
#include "support/checkpoint.hh"
#include "support/error.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

ParallelConfig
withThreads(std::size_t threads)
{
    ParallelConfig parallel;
    parallel.threads = threads;
    parallel.grain = 1; // maximal interleaving stresses determinism
    return parallel;
}

// ---------------------------------------------------------------- //
// Monte-Carlo sampling (core/uncertainty drawSamples)
// ---------------------------------------------------------------- //

class MonteCarloResilienceTest : public ::testing::Test
{
  protected:
    MonteCarloResilienceTest()
        : analysis(defaultTechnologyDb()),
          design(makeMonolithicDesign("resilient-soc", "28nm", 2e9, 2e8,
                                      Weeks(10.0)))
    {}

    UncertaintyAnalysis::Options
    options(std::size_t threads) const
    {
        UncertaintyAnalysis::Options options;
        options.samples = 64;
        options.seed = 0xc0ffee;
        options.parallel = withThreads(threads);
        return options;
    }

    UncertaintyAnalysis analysis;
    ChipDesign design;
    double n_chips = 10e6;
};

TEST_F(MonteCarloResilienceTest, PreCancelledTokenYieldsAllCancelled)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        CancellationToken token;
        token.requestCancel();
        auto mc = options(threads);
        mc.failure_policy = FailurePolicy::skipAndRecord();
        mc.cancel = &token;
        FailureReport report;
        mc.failure_report = &report;

        const std::vector<double> samples =
            analysis.sampleTtm(design, n_chips, {}, mc);

        EXPECT_TRUE(samples.empty()) << "threads=" << threads;
        EXPECT_EQ(report.failureCount(), 64u);
        EXPECT_EQ(report.count(DiagCode::Cancelled), 64u);
        for (const Diagnostic& diagnostic : report.detailed())
            EXPECT_EQ(diagnostic.code, DiagCode::Cancelled);
    }
}

TEST_F(MonteCarloResilienceTest, ExpiredDeadlineReportsDeadlineExceeded)
{
    CancellationToken token;
    token.setDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
    auto mc = options(2);
    mc.failure_policy = FailurePolicy::skipAndRecord();
    mc.cancel = &token;
    FailureReport report;
    mc.failure_report = &report;

    const std::vector<double> samples =
        analysis.sampleTtm(design, n_chips, {}, mc);

    EXPECT_TRUE(samples.empty());
    EXPECT_EQ(report.count(DiagCode::DeadlineExceeded), 64u);
}

TEST_F(MonteCarloResilienceTest, AbortPolicyThrowsStructuredCancelError)
{
    CancellationToken token;
    token.requestCancel();
    auto mc = options(1); // policy stays Abort
    mc.cancel = &token;
    EXPECT_THROW(analysis.sampleTtm(design, n_chips, {}, mc),
                 NumericError);
}

TEST_F(MonteCarloResilienceTest, IdleTokenReproducesTheFastPath)
{
    const std::vector<double> fast =
        analysis.sampleTtm(design, n_chips, {}, options(1));

    CancellationToken token; // never fires
    auto mc = options(4);
    mc.cancel = &token;
    const std::vector<double> guarded =
        analysis.sampleTtm(design, n_chips, {}, mc);

    EXPECT_EQ(fast, guarded);
}

TEST_F(MonteCarloResilienceTest, ResumeRestoresRecordedPointsVerbatim)
{
    auto mc = options(1);
    SweepCheckpoint seeded;
    seeded.bind("sampleTtm", mc.seed, 64);
    seeded.record(0, 42.0);
    seeded.record(63, -1.0);
    mc.resume_from = &seeded;

    const std::vector<double> samples =
        analysis.sampleTtm(design, n_chips, {}, mc);

    ASSERT_EQ(samples.size(), 64u);
    // Restored points bypass the model entirely: the fabricated
    // values prove the checkpoint, not a re-evaluation, supplied them.
    EXPECT_EQ(samples[0], 42.0);
    EXPECT_EQ(samples[63], -1.0);
}

TEST_F(MonteCarloResilienceTest, MismatchedCheckpointIsRejected)
{
    auto mc = options(1);
    SweepCheckpoint wrong;
    wrong.bind("sobolAnalyze", mc.seed, 64);
    mc.resume_from = &wrong;
    EXPECT_THROW(analysis.sampleTtm(design, n_chips, {}, mc),
                 ModelError);

    SweepCheckpoint wrong_seed;
    wrong_seed.bind("sampleTtm", mc.seed + 1, 64);
    mc.resume_from = &wrong_seed;
    EXPECT_THROW(analysis.sampleTtm(design, n_chips, {}, mc),
                 ModelError);
}

TEST_F(MonteCarloResilienceTest, PartialResumeMatchesStraightRunBitwise)
{
    const std::vector<double> straight =
        analysis.sampleTtm(design, n_chips, {}, options(1));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        // A checkpoint holding only half the sweep, as if the first
        // run was killed mid-flight.
        SweepCheckpoint partial;
        partial.bind("sampleTtm", options(1).seed, 64);
        for (std::size_t i = 0; i < 32; ++i)
            partial.record(i, straight[i]);

        auto mc = options(threads);
        mc.resume_from = &partial;
        SweepCheckpoint full;
        mc.checkpoint = &full;
        const std::vector<double> resumed =
            analysis.sampleTtm(design, n_chips, {}, mc);

        EXPECT_EQ(resumed, straight) << "threads=" << threads;
        // The new checkpoint re-records restored points too, so a
        // chain of resumes never loses coverage.
        EXPECT_EQ(full.completedCount(), 64u);
    }
}

TEST_F(MonteCarloResilienceTest, InjectedFaultsLeaveSurvivorsBitwise)
{
    const std::vector<double> clean =
        analysis.sampleTtm(design, n_chips, {}, options(1));

    FaultInjector::Options fault_options;
    fault_options.probability = 0.2;
    fault_options.seed = 0xfa017;
    const FaultInjector faults(fault_options);
    ASSERT_GT(faults.armedCount(64), 0u);

    // Every point is a pure function of (inputs, seed, index): an
    // injected fault removes its point and nothing else.
    std::vector<double> expected;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        if (!faults.armedAt(i))
            expected.push_back(clean[i]);
    }

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        auto mc = options(threads);
        mc.failure_policy = FailurePolicy::skipAndRecord();
        mc.fault_injector = &faults;
        FailureReport report;
        mc.failure_report = &report;
        const std::vector<double> samples =
            analysis.sampleTtm(design, n_chips, {}, mc);
        EXPECT_EQ(samples, expected) << "threads=" << threads;
        EXPECT_EQ(report.failureCount(), faults.armedCount(64));
    }
}

// ---------------------------------------------------------------- //
// Sobol analysis: kill mid-run, resume, compare bitwise
// ---------------------------------------------------------------- //

/** Hold distributions alive alongside the input descriptors. */
struct InputSet
{
    std::vector<std::unique_ptr<Distribution>> owned;
    std::vector<SensitivityInput> inputs;

    void
    add(const std::string& name, double lo, double hi)
    {
        owned.push_back(std::make_unique<UniformDistribution>(lo, hi));
        inputs.push_back(SensitivityInput{name, owned.back().get()});
    }
};

double
smoothModel(const std::vector<double>& x)
{
    return std::sin(x[0]) + 2.0 * x[1] * x[1] + 0.5 * x[0] * x[1];
}

TEST(SobolResilienceTest, KillAndResumeMatchesStraightRunBitwise)
{
    InputSet set;
    set.add("x1", -1.0, 1.0);
    set.add("x2", 0.0, 2.0);
    constexpr std::size_t kBase = 64;
    constexpr std::size_t kTotal = (2 + 2) * kBase;

    SobolOptions straight_options;
    straight_options.base_samples = kBase;
    straight_options.seed = 0x50b01;
    const SobolResult straight =
        sobolAnalyze(set.inputs, smoothModel, straight_options);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        // Interrupted run: the model itself pulls the trigger after 60
        // evaluations, like a deadline landing mid-sweep.
        CancellationToken token;
        std::atomic<std::size_t> evals{0};
        const auto trippingModel =
            [&](const std::vector<double>& x) {
                if (evals.fetch_add(1) + 1 >= 60)
                    token.requestCancel();
                return smoothModel(x);
            };

        SweepCheckpoint checkpoint;
        SobolOptions interrupted = straight_options;
        interrupted.parallel = withThreads(threads);
        interrupted.failure_policy = FailurePolicy::skipAndRecord();
        interrupted.cancel = &token;
        interrupted.checkpoint = &checkpoint;
        try {
            sobolAnalyze(set.inputs, trippingModel, interrupted);
        } catch (const Error&) {
            // A stop can leave too few surviving rows for the
            // estimators; the checkpoint is still intact.
        }
        const std::size_t completed = checkpoint.completedCount();
        EXPECT_GE(completed, 60u) << "threads=" << threads;
        EXPECT_LT(completed, kTotal) << "threads=" << threads;

        // Resumed run: restores the completed subset, computes the
        // rest, and must land on the straight run's indices bitwise.
        SobolOptions resumed_options = straight_options;
        resumed_options.parallel = withThreads(threads);
        resumed_options.resume_from = &checkpoint;
        SweepCheckpoint final_checkpoint;
        resumed_options.checkpoint = &final_checkpoint;
        std::atomic<std::size_t> resumed_evals{0};
        const auto countingModel =
            [&](const std::vector<double>& x) {
                resumed_evals.fetch_add(1);
                return smoothModel(x);
            };
        const SobolResult resumed =
            sobolAnalyze(set.inputs, countingModel, resumed_options);

        EXPECT_EQ(resumed.first_order, straight.first_order)
            << "threads=" << threads;
        EXPECT_EQ(resumed.total_effect, straight.total_effect)
            << "threads=" << threads;
        EXPECT_EQ(resumed.output_mean, straight.output_mean);
        EXPECT_EQ(resumed.output_variance, straight.output_variance);
        // Only the missing points were re-evaluated...
        EXPECT_EQ(resumed_evals.load(), kTotal - completed);
        // ...and the final checkpoint covers the whole sweep.
        EXPECT_EQ(final_checkpoint.completedCount(), kTotal);
    }
}

TEST(SobolResilienceTest, BootstrapDropsCancelledReplicates)
{
    InputSet set;
    set.add("x1", -1.0, 1.0);
    set.add("x2", 0.0, 2.0);
    SobolOptions analyze_options;
    analyze_options.base_samples = 64;
    SobolRowData rows;
    sobolAnalyze(set.inputs, smoothModel, analyze_options, &rows);

    CancellationToken token;
    token.requestCancel();
    SobolBootstrapOptions options;
    options.resamples = 32;
    options.failure_policy = FailurePolicy::skipAndRecord();
    options.cancel = &token;
    FailureReport report;
    options.failure_report = &report;
    // Every replicate is cancelled: fewer than two survive, which the
    // percentile interval cannot tolerate — a structured error, not a
    // crash or a torn interval.
    EXPECT_THROW(sobolBootstrapCi(rows, options), Error);
    EXPECT_EQ(report.count(DiagCode::Cancelled), 32u);
}

// ---------------------------------------------------------------- //
// Cache sweep, split planner, portfolio planner
// ---------------------------------------------------------------- //

MissCurve
syntheticCurve(bool instruction, double scale, double floor)
{
    MissCurve curve;
    curve.workload = "synthetic";
    curve.instruction_stream = instruction;
    curve.sizes_bytes = MissCurveOptions::paperSizes();
    for (std::uint64_t size : curve.sizes_bytes) {
        curve.miss_rates.push_back(
            floor +
            scale / std::pow(static_cast<double>(size) / 1024.0, 0.8));
    }
    return curve;
}

TEST(CacheSweepResilienceTest, PreCancelledTokenYieldsAllCancelled)
{
    const CacheSweep sweep(defaultTechnologyDb(),
                           syntheticCurve(true, 0.06, 0.0005),
                           syntheticCurve(false, 0.18, 0.02), IpcModel{});
    CancellationToken token;
    token.requestCancel();

    CacheSweepOptions options;
    options.sizes_bytes = {1024, 8 * 1024, 64 * 1024};
    options.process = "14nm";
    options.n_chips = 100e6;
    options.parallel = withThreads(2);
    options.failure_policy = FailurePolicy::skipAndRecord();
    options.cancel = &token;
    FailureReport report;
    options.failure_report = &report;

    const std::vector<CacheDesignPoint> points = sweep.sweep(options);

    EXPECT_TRUE(points.empty());
    EXPECT_EQ(report.count(DiagCode::Cancelled), 9u);
}

TEST(SplitResilienceTest, PreCancelledSweepThrowsStructuredError)
{
    TtmModel::Options model_options;
    model_options.tapeout_engineers = kRavenTapeoutEngineers;
    SplitPlanner::Options options;
    options.fractions = {0.25, 0.5, 0.75, 1.0};
    options.parallel = withThreads(2);
    options.failure_policy = FailurePolicy::skipAndRecord();
    CancellationToken token;
    token.requestCancel();
    options.cancel = &token;
    FailureReport report;
    options.failure_report = &report;
    const SplitPlanner planner(
        TtmModel(defaultTechnologyDb(), model_options),
        CostModel(defaultTechnologyDb()), options);

    // Every fraction is cancelled, so no candidate survives the race:
    // a plan cannot be partial, and the planner says so structurally.
    EXPECT_THROW(planner.optimizeCas(
                     [](const std::string& process) {
                         return designs::ravenMulticore(process);
                     },
                     1e9, "28nm", "40nm"),
                 Error);
    EXPECT_GT(report.count(DiagCode::Cancelled), 0u);
}

TEST(PortfolioResilienceTest, PreCancelledSeedingThrowsStructuredError)
{
    TtmModel::Options model_options;
    model_options.tapeout_engineers = kA11TapeoutEngineers;
    PortfolioPlanner::Options options;
    options.candidate_nodes = {"65nm", "40nm", "28nm"};
    options.parallel = withThreads(2);
    options.failure_policy = FailurePolicy::skipAndRecord();
    CancellationToken token;
    token.requestCancel();
    options.cancel = &token;
    FailureReport report;
    options.failure_report = &report;
    const PortfolioPlanner planner(
        TtmModel(defaultTechnologyDb(), model_options), options);

    PortfolioProduct product;
    product.name = "p";
    product.design =
        makeMonolithicDesign("p", "28nm", 2e9, 2e8, Weeks(2.0));
    product.n_chips = 10e6;
    product.deadline = Weeks(40.0);

    // Every seeding pair is cancelled: the product fits no surviving
    // node, which the planner reports as a structured ModelError.
    EXPECT_THROW(planner.plan({product}), ModelError);
    EXPECT_EQ(report.count(DiagCode::Cancelled), 3u);
}

} // namespace
} // namespace ttmcas
