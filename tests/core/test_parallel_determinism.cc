/**
 * @file
 * The parallel evaluation engine's determinism contract: for a given
 * seed, every parallel kernel must produce results bitwise-identical
 * to its serial path, independent of thread count and grain. These
 * tests ask for up to 8 threads (a call runs on at most the core
 * count, on the process-wide pool) and are labeled "parallel" so
 * `ctest -L parallel` exercises them under TSan.
 */

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/reference_designs.hh"
#include "core/uncertainty.hh"
#include "opt/cache_optimizer.hh"
#include "opt/split_optimizer.hh"
#include "opt/portfolio.hh"
#include "sim/ariane.hh"
#include "sim/ipc_model.hh"
#include "sim/miss_curves.hh"
#include "stats/sobol.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

UncertaintyAnalysis::Options
mcOptions(std::size_t threads, std::size_t grain = 16)
{
    UncertaintyAnalysis::Options options;
    options.samples = 96;
    options.seed = 20230806;
    options.parallel.threads = threads;
    options.parallel.grain = grain;
    return options;
}

class ParallelDeterminismTest : public ::testing::Test
{
  protected:
    ParallelDeterminismTest()
        : analysis(defaultTechnologyDb(), modelOptions())
    {}

    static TtmModel::Options
    modelOptions()
    {
        TtmModel::Options options;
        options.tapeout_engineers = kA11TapeoutEngineers;
        return options;
    }

    UncertaintyAnalysis analysis;
    ChipDesign a11_7nm = designs::a11("7nm");
};

TEST_F(ParallelDeterminismTest, SampleTtmBitwiseIndependentOfThreads)
{
    const auto serial =
        analysis.sampleTtm(a11_7nm, 10e6, {}, mcOptions(1));
    const auto parallel =
        analysis.sampleTtm(a11_7nm, 10e6, {}, mcOptions(8));
    EXPECT_EQ(serial, parallel);
    // Grain is a pure performance knob: per-sample RNG streams mean
    // chunk boundaries cannot change the drawn values either.
    EXPECT_EQ(serial, analysis.sampleTtm(a11_7nm, 10e6, {},
                                         mcOptions(8, 5)));
}

TEST_F(ParallelDeterminismTest, SampleCasBitwiseIndependentOfThreads)
{
    EXPECT_EQ(analysis.sampleCas(a11_7nm, 10e6, {}, mcOptions(1)),
              analysis.sampleCas(a11_7nm, 10e6, {}, mcOptions(8)));
}

TEST_F(ParallelDeterminismTest, WaferDemandBitwiseIndependentOfThreads)
{
    EXPECT_EQ(
        analysis.sampleWaferDemand(a11_7nm, 10e6, "7nm", mcOptions(1)),
        analysis.sampleWaferDemand(a11_7nm, 10e6, "7nm", mcOptions(8)));
}

TEST_F(ParallelDeterminismTest, TtmSensitivityMatchesSerialIndices)
{
    const SobolResult serial = analysis.ttmSensitivity(
        a11_7nm, 10e6, {}, mcOptions(1));
    const SobolResult parallel = analysis.ttmSensitivity(
        a11_7nm, 10e6, {}, mcOptions(8, 4));
    ASSERT_EQ(serial.total_effect.size(), parallel.total_effect.size());
    for (std::size_t i = 0; i < serial.total_effect.size(); ++i) {
        EXPECT_NEAR(parallel.total_effect[i], serial.total_effect[i],
                    1e-12);
        EXPECT_NEAR(parallel.first_order[i], serial.first_order[i],
                    1e-12);
    }
    EXPECT_DOUBLE_EQ(parallel.output_mean, serial.output_mean);
    EXPECT_DOUBLE_EQ(parallel.output_variance, serial.output_variance);
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
}

TEST(ParallelSobolTest, AnalyzeBitwiseIndependentOfThreads)
{
    UniformDistribution x(-1.0, 1.0), y(0.0, 2.0);
    const std::vector<SensitivityInput> inputs{{"x", &x}, {"y", &y}};
    const auto model = [](const std::vector<double>& p) {
        return 3.0 * p[0] * p[0] + p[1];
    };
    SobolOptions serial_options;
    serial_options.base_samples = 512;
    SobolOptions parallel_options = serial_options;
    parallel_options.parallel = ParallelConfig{8, 8};

    SobolRowData serial_rows, parallel_rows;
    const SobolResult serial =
        sobolAnalyze(inputs, model, serial_options, &serial_rows);
    const SobolResult parallel =
        sobolAnalyze(inputs, model, parallel_options, &parallel_rows);

    EXPECT_EQ(serial.first_order, parallel.first_order);
    EXPECT_EQ(serial.total_effect, parallel.total_effect);
    EXPECT_EQ(serial_rows.f_a, parallel_rows.f_a);
    EXPECT_EQ(serial_rows.f_b, parallel_rows.f_b);
    EXPECT_EQ(serial_rows.f_ab, parallel_rows.f_ab);

    // Bootstrap CIs over those rows are thread-count independent too.
    const SobolConfidence serial_ci =
        sobolBootstrapCi(serial_rows, 100, 0.95, 0xb007, true,
                         ParallelConfig::serial());
    const SobolConfidence parallel_ci =
        sobolBootstrapCi(parallel_rows, 100, 0.95, 0xb007, true,
                         ParallelConfig{8, 4});
    EXPECT_EQ(serial_ci.first_order, parallel_ci.first_order);
    EXPECT_EQ(serial_ci.total_effect, parallel_ci.total_effect);
}

/** Power-law miss curve toward a compulsory floor (SPEC-like shape). */
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

TEST(ParallelOptimizerTest, CacheSweepBitwiseIndependentOfThreads)
{
    const TechnologyDb& db = defaultTechnologyDb();
    const CacheSweep sweep(db, syntheticCurve(true, 0.06, 0.0005),
                           syntheticCurve(false, 0.18, 0.02), IpcModel{});

    CacheSweepOptions serial_options;
    serial_options.sizes_bytes = {4096, 16384, 65536, 262144};
    serial_options.parallel = ParallelConfig::serial();
    CacheSweepOptions parallel_options = serial_options;
    parallel_options.parallel = ParallelConfig{8, 1};

    const auto serial = sweep.sweep(serial_options);
    const auto parallel = sweep.sweep(parallel_options);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].icache_bytes, parallel[i].icache_bytes);
        EXPECT_EQ(serial[i].dcache_bytes, parallel[i].dcache_bytes);
        EXPECT_EQ(serial[i].ipc, parallel[i].ipc);
        EXPECT_EQ(serial[i].ttm.value(), parallel[i].ttm.value());
        EXPECT_EQ(serial[i].cost.value(), parallel[i].cost.value());
    }
    EXPECT_EQ(CacheSweep::bestByIpcPerTtm(serial).icache_bytes,
              CacheSweep::bestByIpcPerTtm(parallel).icache_bytes);
}

TEST(ParallelOptimizerTest, SplitPlanBitwiseIndependentOfThreads)
{
    const TechnologyDb& db = defaultTechnologyDb();
    const auto factory = [](const std::string& node) {
        return designs::a11(node);
    };

    SplitPlanner::Options serial_options;
    serial_options.fractions = {0.25, 0.5, 0.75, 1.0};
    serial_options.parallel = ParallelConfig::serial();
    SplitPlanner::Options parallel_options = serial_options;
    parallel_options.parallel = ParallelConfig{8, 1};

    const SplitPlanner serial_planner(TtmModel{db}, CostModel{db},
                                      serial_options);
    const SplitPlanner parallel_planner(TtmModel{db}, CostModel{db},
                                        parallel_options);
    const ProductionPlan serial =
        serial_planner.optimizeCas(factory, 10e6, "28nm", "40nm");
    const ProductionPlan parallel =
        parallel_planner.optimizeCas(factory, 10e6, "28nm", "40nm");
    EXPECT_EQ(serial.primary, parallel.primary);
    EXPECT_EQ(serial.secondary, parallel.secondary);
    EXPECT_EQ(serial.primary_fraction, parallel.primary_fraction);
    EXPECT_EQ(serial.cas, parallel.cas);
    EXPECT_EQ(serial.ttm.value(), parallel.ttm.value());
    EXPECT_EQ(serial.cost.value(), parallel.cost.value());
}

TEST(ParallelOptimizerTest, PortfolioPlanBitwiseIndependentOfThreads)
{
    const TechnologyDb& db = defaultTechnologyDb();
    std::vector<PortfolioProduct> products;
    PortfolioProduct phone;
    phone.name = "phone";
    phone.design = designs::a11("7nm");
    phone.n_chips = 10e6;
    phone.deadline = Weeks(60.0);
    products.push_back(phone);
    PortfolioProduct micro;
    micro.name = "micro";
    micro.design = makeMonolithicDesign("micro", "7nm", 5e8, 1e8);
    micro.n_chips = 2e6;
    micro.deadline = Weeks(40.0);
    products.push_back(micro);

    PortfolioPlanner::Options serial_options;
    serial_options.parallel = ParallelConfig::serial();
    PortfolioPlanner::Options parallel_options;
    parallel_options.parallel = ParallelConfig{8, 1};

    const PortfolioPlan serial =
        PortfolioPlanner(TtmModel(db), serial_options).plan(products);
    const PortfolioPlan parallel =
        PortfolioPlanner(TtmModel(db), parallel_options).plan(products);
    EXPECT_EQ(serial.total_weighted_lateness,
              parallel.total_weighted_lateness);
    ASSERT_EQ(serial.assignments.size(), parallel.assignments.size());
    for (std::size_t i = 0; i < serial.assignments.size(); ++i) {
        EXPECT_EQ(serial.assignments[i].node,
                  parallel.assignments[i].node);
        EXPECT_EQ(serial.assignments[i].ttm.value(),
                  parallel.assignments[i].ttm.value());
    }
}

} // namespace
} // namespace ttmcas
