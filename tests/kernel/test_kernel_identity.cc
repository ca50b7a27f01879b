/**
 * @file
 * The batch-kernel identity contract (docs/PERFORMANCE.md): every
 * result produced through the compiled SoA batch path (EvalPath::
 * kBatch, the default) must be bitwise-identical to the legacy scalar
 * oracle (EvalPath::kScalar) — for Monte-Carlo TTM/CAS/wafer-demand
 * sampling, Sobol sensitivity plus its bootstrap confidence intervals,
 * and the capacity sweep; at 1 and at 8 threads; under deterministic
 * fault injection; and across mid-batch cancellation with checkpoint
 * resume (a checkpoint written by one path must resume bitwise-exactly
 * under the other). Labeled "kernel" so `ctest -L kernel` runs exactly
 * these, including under ASan/UBSan and TSan in CI.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cas.hh"
#include "core/reference_designs.hh"
#include "core/ttm_batch.hh"
#include "core/uncertainty.hh"
#include "stats/distributions.hh"
#include "stats/fault_injection.hh"
#include "stats/rng.hh"
#include "stats/sobol.hh"
#include "support/cancel.hh"
#include "support/checkpoint.hh"
#include "support/metrics.hh"
#include "support/outcome.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

TtmModel::Options
modelOptions()
{
    TtmModel::Options options;
    options.tapeout_engineers = kA11TapeoutEngineers;
    return options;
}

UncertaintyAnalysis::Options
mcOptions(std::size_t threads, EvalPath path)
{
    UncertaintyAnalysis::Options options;
    options.samples = 96;
    options.seed = 20230806;
    options.parallel.threads = threads;
    options.parallel.grain = 16;
    options.eval_path = path;
    return options;
}

/**
 * A market whose 12nm queue backlog ties Zen 2's two fab times to the
 * same double (the backlog is stepped one ulp at a time).
 */
MarketConditions
tiedZen2Market(const TtmModel& model, const ChipDesign& zen, double n_chips)
{
    const TtmResult base = model.evaluate(zen, n_chips);
    const double target = base.nodeDetail("7nm").fabTime().value();
    const NodeFabDetail& io = base.nodeDetail("12nm");
    double wafers =
        (target - io.production_time.value()) * io.effective_rate.value();
    MarketConditions market;
    for (int step = 0; step < 4096; ++step) {
        market.setQueueWafers("12nm", Wafers(wafers));
        const double fab = model.evaluate(zen, n_chips, market)
                               .nodeDetail("12nm")
                               .fabTime()
                               .value();
        if (fab == target)
            return market;
        wafers = std::nextafter(
            wafers, fab < target ? std::numeric_limits<double>::infinity()
                                 : 0.0);
    }
    ADD_FAILURE() << "no 12nm backlog ties the 7nm fab time";
    return market;
}

class KernelIdentityTest : public ::testing::Test
{
  protected:
    KernelIdentityTest() : analysis(defaultTechnologyDb(), modelOptions())
    {}

    UncertaintyAnalysis analysis;
    ChipDesign a11_7nm = designs::a11("7nm");
    double n_chips = 10e6;
};

// ---------------------------------------------------------------- //
// Monte-Carlo kernels, 1 and 8 threads
// ---------------------------------------------------------------- //

TEST_F(KernelIdentityTest, SampleTtmBatchMatchesScalarBitwise)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto batch = analysis.sampleTtm(
            a11_7nm, n_chips, {}, mcOptions(threads, EvalPath::kBatch));
        const auto scalar = analysis.sampleTtm(
            a11_7nm, n_chips, {}, mcOptions(threads, EvalPath::kScalar));
        EXPECT_EQ(batch, scalar) << "threads=" << threads;
    }
}

TEST_F(KernelIdentityTest, SampleCasBatchMatchesScalarBitwise)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto batch = analysis.sampleCas(
            a11_7nm, n_chips, {}, mcOptions(threads, EvalPath::kBatch));
        const auto scalar = analysis.sampleCas(
            a11_7nm, n_chips, {}, mcOptions(threads, EvalPath::kScalar));
        EXPECT_EQ(batch, scalar) << "threads=" << threads;
    }
}

TEST_F(KernelIdentityTest, SampleWaferDemandBatchMatchesScalarBitwise)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const auto batch = analysis.sampleWaferDemand(
            a11_7nm, n_chips, "7nm",
            mcOptions(threads, EvalPath::kBatch));
        const auto scalar = analysis.sampleWaferDemand(
            a11_7nm, n_chips, "7nm",
            mcOptions(threads, EvalPath::kScalar));
        EXPECT_EQ(batch, scalar) << "threads=" << threads;
    }
}

// A chiplet design stresses the multi-process/multi-die lanes (several
// dies per process, several processes per design).
TEST_F(KernelIdentityTest, ChipletDesignMatchesScalarBitwise)
{
    const ChipDesign zen2 = designs::zen2(designs::Zen2Config::Original);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        EXPECT_EQ(analysis.sampleTtm(zen2, n_chips, {},
                                     mcOptions(threads, EvalPath::kBatch)),
                  analysis.sampleTtm(zen2, n_chips, {},
                                     mcOptions(threads,
                                               EvalPath::kScalar)))
            << "threads=" << threads;
    }
}

// ---------------------------------------------------------------- //
// Sobol sensitivity + bootstrap confidence intervals
// ---------------------------------------------------------------- //

TEST_F(KernelIdentityTest, SobolSensitivityBatchMatchesScalarBitwise)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const SobolResult batch = analysis.ttmSensitivity(
            a11_7nm, n_chips, {}, mcOptions(threads, EvalPath::kBatch));
        const SobolResult scalar = analysis.ttmSensitivity(
            a11_7nm, n_chips, {}, mcOptions(threads, EvalPath::kScalar));
        EXPECT_EQ(batch.first_order, scalar.first_order)
            << "threads=" << threads;
        EXPECT_EQ(batch.total_effect, scalar.total_effect)
            << "threads=" << threads;
        EXPECT_EQ(batch.output_mean, scalar.output_mean);
        EXPECT_EQ(batch.output_variance, scalar.output_variance);
        EXPECT_EQ(batch.evaluations, scalar.evaluations);
    }
}

TEST_F(KernelIdentityTest, SobolBootstrapOverBatchRowsMatchesScalar)
{
    // Feed sobolAnalyze the compiled kernel directly (with the scalar
    // fallback the production wiring uses) against the pure scalar
    // model, then bootstrap both row sets: identical rows must give
    // identical confidence intervals.
    const auto compiled = CompiledDesign::tryCompile(
        a11_7nm, defaultTechnologyDb(), modelOptions(), {}, n_chips);
    ASSERT_TRUE(compiled.has_value());

    std::vector<UniformDistribution> bands(kUncertainInputCount,
                                           UniformDistribution(0.9, 1.1));
    std::vector<SensitivityInput> inputs;
    for (std::size_t i = 0; i < kUncertainInputCount; ++i)
        inputs.push_back(SensitivityInput{
            uncertainInputName(static_cast<UncertainInput>(i)),
            &bands[i]});

    const auto toFactors = [](const std::vector<double>& point) {
        InputFactors factors;
        for (std::size_t i = 0; i < kUncertainInputCount; ++i)
            factors[i] = point[i];
        return factors;
    };
    const auto batch_model = [&](const std::vector<double>& point) {
        double value = 0.0;
        if (compiled->ttmOne(toFactors(point), &value))
            return value;
        return analysis
            .ttmWithFactors(a11_7nm, n_chips, {}, toFactors(point))
            .value();
    };
    const auto scalar_model = [&](const std::vector<double>& point) {
        return analysis
            .ttmWithFactors(a11_7nm, n_chips, {}, toFactors(point))
            .value();
    };

    SobolOptions options;
    options.base_samples = 64;
    options.seed = 0x50b01;
    SobolRowData batch_rows, scalar_rows;
    const SobolResult batch =
        sobolAnalyze(inputs, batch_model, options, &batch_rows);
    const SobolResult scalar =
        sobolAnalyze(inputs, scalar_model, options, &scalar_rows);
    EXPECT_EQ(batch.first_order, scalar.first_order);
    EXPECT_EQ(batch.total_effect, scalar.total_effect);
    EXPECT_EQ(batch_rows.f_a, scalar_rows.f_a);
    EXPECT_EQ(batch_rows.f_b, scalar_rows.f_b);
    EXPECT_EQ(batch_rows.f_ab, scalar_rows.f_ab);

    const SobolConfidence batch_ci = sobolBootstrapCi(
        batch_rows, 100, 0.95, 0xb007, true, ParallelConfig::serial());
    const SobolConfidence scalar_ci = sobolBootstrapCi(
        scalar_rows, 100, 0.95, 0xb007, true, ParallelConfig::serial());
    EXPECT_EQ(batch_ci.first_order, scalar_ci.first_order);
    EXPECT_EQ(batch_ci.total_effect, scalar_ci.total_effect);
}

// ---------------------------------------------------------------- //
// Capacity sweep
// ---------------------------------------------------------------- //

TEST_F(KernelIdentityTest, CapacitySweepBatchMatchesScalarBitwise)
{
    const TtmModel model(defaultTechnologyDb(), modelOptions());
    CasModel::Options batch_options;
    batch_options.eval_path = EvalPath::kBatch;
    CasModel::Options scalar_options;
    scalar_options.eval_path = EvalPath::kScalar;
    const CasModel batch_cas(model, batch_options);
    const CasModel scalar_cas(model, scalar_options);

    const std::vector<double> fractions{0.2, 0.4, 0.6, 0.8, 1.0};
    // Queue backlog exercises the compiled queue-wafer constants (the
    // weeks-denominated and the direct-wafer term).
    MarketConditions base;
    base.setQueueWeeks("7nm", Weeks(2.0));
    base.setQueueWafers("7nm", Wafers(500.0));

    for (const bool with_queue : {false, true}) {
        const MarketConditions conditions =
            with_queue ? base : MarketConditions{};
        const auto batch =
            batch_cas.capacitySweep(a11_7nm, n_chips, fractions,
                                    conditions);
        const auto scalar =
            scalar_cas.capacitySweep(a11_7nm, n_chips, fractions,
                                     conditions);
        ASSERT_EQ(batch.size(), scalar.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(batch[i].capacity_fraction,
                      scalar[i].capacity_fraction);
            EXPECT_EQ(batch[i].ttm.value(), scalar[i].ttm.value());
            EXPECT_EQ(batch[i].cas, scalar[i].cas);
        }
    }
}

// ---------------------------------------------------------------- //
// Direct kernel API: one-lane and batch agree with the scalar model
// ---------------------------------------------------------------- //

TEST_F(KernelIdentityTest, TtmOneMatchesScalarOverWideBand)
{
    const auto compiled = CompiledDesign::tryCompile(
        a11_7nm, defaultTechnologyDb(), modelOptions(), {}, n_chips);
    ASSERT_TRUE(compiled.has_value());

    // +/-25% is the paper's widest uncertainty band.
    Rng rng(0xbead5);
    for (int i = 0; i < 200; ++i) {
        CompiledDesign::Factors factors;
        for (double& f : factors)
            f = rng.uniform(0.75, 1.25);
        InputFactors scalar_factors;
        for (std::size_t k = 0; k < kUncertainInputCount; ++k)
            scalar_factors[k] = factors[k];
        double fast = 0.0;
        ASSERT_TRUE(compiled->ttmOne(factors, &fast)) << "draw " << i;
        EXPECT_EQ(fast, analysis
                            .ttmWithFactors(a11_7nm, n_chips, {},
                                            scalar_factors)
                            .value())
            << "draw " << i;
    }
}

TEST_F(KernelIdentityTest, TtmBatchMatchesOneLaneForLane)
{
    const auto compiled = CompiledDesign::tryCompile(
        a11_7nm, defaultTechnologyDb(), modelOptions(), {}, n_chips);
    ASSERT_TRUE(compiled.has_value());

    constexpr std::size_t kN = 257; // odd, non-power-of-two lane count
    std::array<std::vector<double>, 6> columns;
    Rng rng(0x50a);
    for (auto& column : columns) {
        column.resize(kN);
        for (double& f : column)
            f = rng.uniform(0.75, 1.25);
    }
    const std::array<const double*, 6> pointers{
        columns[0].data(), columns[1].data(), columns[2].data(),
        columns[3].data(), columns[4].data(), columns[5].data()};
    std::vector<double> values(kN);
    std::vector<unsigned char> ok(kN);
    compiled->ttmBatch(pointers, kN, values.data(), ok.data());

    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(ok[i]) << "lane " << i;
        CompiledDesign::Factors factors;
        for (std::size_t k = 0; k < kUncertainInputCount; ++k)
            factors[k] = columns[k][i];
        double one = 0.0;
        ASSERT_TRUE(compiled->ttmOne(factors, &one));
        EXPECT_EQ(values[i], one) << "lane " << i;
    }
}

TEST_F(KernelIdentityTest, CasBatchMatchesOneLaneForLane)
{
    const auto compiled = CompiledDesign::tryCompile(
        a11_7nm, defaultTechnologyDb(), modelOptions(), {}, n_chips);
    ASSERT_TRUE(compiled.has_value());

    constexpr std::size_t kN = 131; // odd, non-power-of-two lane count
    std::array<std::vector<double>, 6> columns;
    Rng rng(0xca5b);
    for (auto& column : columns) {
        column.resize(kN);
        for (double& f : column)
            f = rng.uniform(0.75, 1.25);
    }
    const std::array<const double*, 6> pointers{
        columns[0].data(), columns[1].data(), columns[2].data(),
        columns[3].data(), columns[4].data(), columns[5].data()};
    std::vector<double> values(kN);
    std::vector<unsigned char> ok(kN);
    compiled->casBatch(pointers, kN, kCasNormalization,
                       nullptr, values.data(), ok.data());

    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(ok[i]) << "lane " << i;
        CompiledDesign::Factors factors;
        for (std::size_t k = 0; k < kUncertainInputCount; ++k)
            factors[k] = columns[k][i];
        double one = 0.0;
        ASSERT_TRUE(
            compiled->casOne(factors, kCasNormalization, nullptr, &one));
        EXPECT_EQ(values[i], one) << "lane " << i;
    }
}

TEST_F(KernelIdentityTest, CasBatchHonoursCapacityOverrides)
{
    const auto compiled = CompiledDesign::tryCompile(
        a11_7nm, defaultTechnologyDb(), modelOptions(), {}, n_chips);
    ASSERT_TRUE(compiled.has_value());

    constexpr std::size_t kN = 17;
    std::array<std::vector<double>, 6> columns;
    Rng rng(0xcafe);
    for (auto& column : columns) {
        column.resize(kN);
        for (double& f : column)
            f = rng.uniform(0.9, 1.1);
    }
    const std::array<const double*, 6> pointers{
        columns[0].data(), columns[1].data(), columns[2].data(),
        columns[3].data(), columns[4].data(), columns[5].data()};
    std::vector<double> caps(compiled->processCount(), 0.8);
    std::vector<double> values(kN);
    std::vector<unsigned char> ok(kN);
    compiled->casBatch(pointers, kN, kCasNormalization,
                       caps.data(), values.data(), ok.data());

    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(ok[i]) << "lane " << i;
        CompiledDesign::Factors factors;
        for (std::size_t k = 0; k < kUncertainInputCount; ++k)
            factors[k] = columns[k][i];
        double one = 0.0;
        ASSERT_TRUE(compiled->casOne(factors, kCasNormalization,
                                     caps.data(), &one));
        EXPECT_EQ(values[i], one) << "lane " << i;
    }
}

TEST_F(KernelIdentityTest, CasKernelsMatchScalarOnTieLanes)
{
    // At an exact bottleneck tie Eq. 8 takes half of each tied node's
    // slope; every compiled CAS path must find the same tie.
    const TtmModel model(defaultTechnologyDb(), modelOptions());
    const CasModel scalar(model);
    const ChipDesign zen = designs::zen2(designs::Zen2Config::Original);
    const MarketConditions tied = tiedZen2Market(model, zen, n_chips);
    const TtmResult at_tie = model.evaluate(zen, n_chips, tied);
    ASSERT_EQ(at_tie.nodeDetail("7nm").fabTime(),
              at_tie.nodeDetail("12nm").fabTime());
    const double expected = scalar.cas(zen, n_chips, tied);

    const auto compiled = CompiledDesign::tryCompile(
        zen, defaultTechnologyDb(), modelOptions(), tied, n_chips);
    ASSERT_TRUE(compiled.has_value());
    double one = 0.0;
    ASSERT_TRUE(compiled->casOne(CompiledDesign::kNominal,
                                 kCasNormalization, nullptr, &one));
    EXPECT_EQ(one, expected);

    // Tie lanes (all factors 1) interleaved with perturbed lanes.
    constexpr std::size_t kN = 9;
    std::array<std::vector<double>, 6> columns;
    Rng rng(0x71e);
    for (auto& column : columns) {
        column.resize(kN);
        for (std::size_t i = 0; i < kN; ++i)
            column[i] = i % 2 == 0 ? 1.0 : rng.uniform(0.9, 1.1);
    }
    const std::array<const double*, 6> pointers{
        columns[0].data(), columns[1].data(), columns[2].data(),
        columns[3].data(), columns[4].data(), columns[5].data()};
    std::vector<double> values(kN);
    std::vector<unsigned char> ok(kN);
    compiled->casBatch(pointers, kN, kCasNormalization, nullptr,
                       values.data(), ok.data());
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_TRUE(ok[i]) << "lane " << i;
        InputFactors factors;
        for (std::size_t k = 0; k < kUncertainInputCount; ++k)
            factors[k] = columns[k][i];
        EXPECT_EQ(values[i],
                  analysis.casWithFactors(zen, n_chips, tied, factors))
            << "lane " << i;
    }
    EXPECT_EQ(values[0], expected);

    // The sweep's full-capacity point keeps the base market's tie.
    CasModel::Options batch_options;
    batch_options.eval_path = EvalPath::kBatch;
    CasModel::Options scalar_options;
    scalar_options.eval_path = EvalPath::kScalar;
    const std::vector<double> fractions{0.5, 1.0};
    const auto batch = CasModel(model, batch_options)
                           .capacitySweep(zen, n_chips, fractions, tied);
    const auto oracle = CasModel(model, scalar_options)
                            .capacitySweep(zen, n_chips, fractions, tied);
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        EXPECT_EQ(batch[i].ttm.value(), oracle[i].ttm.value());
        EXPECT_EQ(batch[i].cas, oracle[i].cas);
    }
    EXPECT_EQ(batch[1].cas, expected);
}

TEST_F(KernelIdentityTest, CasKernelsCompleteBelowAThousandthWaferPerWeek)
{
    // Below 1e-3 wafers/week the central difference this kernel once
    // took stepped the rate negative: the lane fell back and the
    // scalar chain threw. The closed form completes on both paths.
    const TtmModel model(defaultTechnologyDb(), modelOptions());
    const auto compiled = CompiledDesign::tryCompile(
        a11_7nm, defaultTechnologyDb(), modelOptions(), {}, n_chips);
    ASSERT_TRUE(compiled.has_value());
    const double factor = 1e-8;
    ASSERT_LT(model.technology().node("7nm").waferRate().value() * factor,
              1e-3);
    double fast = 0.0;
    ASSERT_TRUE(compiled->casOne(CompiledDesign::kNominal,
                                 kCasNormalization, &factor, &fast));
    MarketConditions starved;
    starved.setCapacityFactor("7nm", factor);
    EXPECT_EQ(fast, CasModel(model).cas(a11_7nm, n_chips, starved));

    CasModel::Options batch_options;
    batch_options.eval_path = EvalPath::kBatch;
    CasModel::Options scalar_options;
    scalar_options.eval_path = EvalPath::kScalar;
    const std::vector<double> fractions{1e-9, factor, 1e-6};
    const auto batch = CasModel(model, batch_options)
                           .capacitySweep(a11_7nm, n_chips, fractions);
    const auto oracle = CasModel(model, scalar_options)
                            .capacitySweep(a11_7nm, n_chips, fractions);
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        EXPECT_EQ(batch[i].ttm.value(), oracle[i].ttm.value());
        EXPECT_EQ(batch[i].cas, oracle[i].cas);
        EXPECT_GT(batch[i].cas, 0.0);
    }
}

// ---------------------------------------------------------------- //
// Fault injection and cancellation across paths
// ---------------------------------------------------------------- //

TEST_F(KernelIdentityTest, FaultInjectionIdenticalAcrossPaths)
{
    FaultInjector::Options injector_options;
    injector_options.probability = 0.15;
    injector_options.seed = 0xfa017;
    const FaultInjector faults(injector_options);
    const std::size_t armed = faults.armedCount(96);
    ASSERT_GT(armed, 0u);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        std::vector<std::vector<double>> surviving;
        std::vector<std::size_t> failures;
        for (const EvalPath path : {EvalPath::kBatch, EvalPath::kScalar}) {
            auto mc = mcOptions(threads, path);
            mc.failure_policy = FailurePolicy::skipAndRecord();
            mc.fault_injector = &faults;
            FailureReport report;
            mc.failure_report = &report;
            surviving.push_back(
                analysis.sampleTtm(a11_7nm, n_chips, {}, mc));
            failures.push_back(report.failureCount());
        }
        EXPECT_EQ(surviving[0], surviving[1]) << "threads=" << threads;
        EXPECT_EQ(failures[0], armed) << "threads=" << threads;
        EXPECT_EQ(failures[0], failures[1]) << "threads=" << threads;
    }
}

TEST_F(KernelIdentityTest, PreCancelledTokenIdenticalAcrossPaths)
{
    for (const EvalPath path : {EvalPath::kBatch, EvalPath::kScalar}) {
        CancellationToken token;
        token.requestCancel();
        auto mc = mcOptions(8, path);
        mc.failure_policy = FailurePolicy::skipAndRecord();
        mc.cancel = &token;
        FailureReport report;
        mc.failure_report = &report;

        const auto samples = analysis.sampleTtm(a11_7nm, n_chips, {}, mc);
        EXPECT_TRUE(samples.empty());
        EXPECT_EQ(report.count(DiagCode::Cancelled), 96u);
    }
}

// The options ttm_serve always sets — skip-and-record plus an idle
// cancel token, with and without a fault injector — must run the SoA
// chunk path (more than one lane per compiled-batch call; the per-
// point path calls it with one lane) and return the default options'
// bits, minus exactly the armed points.
TEST_F(KernelIdentityTest, ServeStyleOptionsRunTheBatchKernel)
{
    FaultInjector::Options injector_options;
    injector_options.probability = 0.15;
    injector_options.seed = 0xfa017;
    const FaultInjector faults(injector_options);
    ASSERT_GT(faults.armedCount(96), 0u);

    const auto ttm = [&](const UncertaintyAnalysis::Options& options) {
        return analysis.sampleTtm(a11_7nm, n_chips, {}, options);
    };
    const auto demand = [&](const UncertaintyAnalysis::Options& options) {
        return analysis.sampleWaferDemand(a11_7nm, n_chips, "7nm", options);
    };
    for (const auto& kernel :
         {std::function<std::vector<double>(
              const UncertaintyAnalysis::Options&)>(ttm),
          std::function<std::vector<double>(
              const UncertaintyAnalysis::Options&)>(demand)}) {
        const std::vector<double> reference =
            kernel(mcOptions(1, EvalPath::kBatch));
        ASSERT_EQ(reference.size(), 96u);
        const std::array<const FaultInjector*, 2> injectors{&faults,
                                                            nullptr};
        for (const FaultInjector* injector : injectors) {
            CancellationToken token;
            FailureReport report;
            auto serve = mcOptions(1, EvalPath::kBatch);
            serve.failure_policy = FailurePolicy::skipAndRecord(1.0);
            serve.failure_report = &report;
            serve.cancel = &token;
            serve.fault_injector = injector;

            obs::resetMetrics();
            obs::setMetricsEnabled(true);
            const std::vector<double> samples = kernel(serve);
            const obs::MetricsSnapshot snapshot = obs::snapshotMetrics();
            obs::setMetricsEnabled(false);

            const auto size = std::find_if(
                snapshot.histograms.begin(), snapshot.histograms.end(),
                [](const obs::HistogramSnapshot& histogram) {
                    return histogram.name == "ttm.batch.size";
                });
            ASSERT_NE(size, snapshot.histograms.end());
            EXPECT_GT(size->count, 0u);
            EXPECT_GT(size->sum, static_cast<double>(size->count));

            std::vector<double> expected;
            for (std::size_t i = 0; i < reference.size(); ++i) {
                if (injector == nullptr || !injector->armedAt(i))
                    expected.push_back(reference[i]);
            }
            EXPECT_EQ(samples, expected);
            EXPECT_EQ(report.failureCount(),
                      injector == nullptr ? 0u : faults.armedCount(96));
        }
    }
}

// Mid-batch cancellation: fire the token from another thread while the
// batch path is sampling. Which points complete is timing-dependent;
// that every completed point's value is bitwise-exact is not. The
// checkpoint gives the index -> value map to verify against a straight
// scalar run.
TEST_F(KernelIdentityTest, MidBatchCancelValuesMatchScalarStraightRun)
{
    auto straight_options = mcOptions(1, EvalPath::kScalar);
    SweepCheckpoint straight_checkpoint;
    straight_options.checkpoint = &straight_checkpoint;
    analysis.sampleTtm(a11_7nm, n_chips, {}, straight_options);
    ASSERT_EQ(straight_checkpoint.completedCount(), 96u);

    CancellationToken token;
    std::thread trigger([&token] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        token.requestCancel();
    });
    auto mc = mcOptions(8, EvalPath::kBatch);
    mc.failure_policy = FailurePolicy::skipAndRecord();
    mc.cancel = &token;
    SweepCheckpoint checkpoint;
    mc.checkpoint = &checkpoint;
    FailureReport report;
    mc.failure_report = &report;
    analysis.sampleTtm(a11_7nm, n_chips, {}, mc);
    trigger.join();

    // Partial-but-well-formed: completed + cancelled covers the batch.
    EXPECT_EQ(checkpoint.completedCount() +
                  report.count(DiagCode::Cancelled),
              96u);
    for (std::size_t i = 0; i < 96; ++i) {
        if (checkpoint.has(i)) {
            EXPECT_EQ(checkpoint.value(i), straight_checkpoint.value(i))
                << "point " << i;
        }
    }
}

// A checkpoint written by one evaluation path must resume bitwise-
// exactly under the other: the half-run-then-killed workflow cannot
// care which engine wrote the file.
TEST_F(KernelIdentityTest, CheckpointResumeCrossesPathsBitwise)
{
    auto straight_options = mcOptions(1, EvalPath::kScalar);
    const auto straight =
        analysis.sampleTtm(a11_7nm, n_chips, {}, straight_options);

    SweepCheckpoint full;
    auto record_options = mcOptions(1, EvalPath::kBatch);
    record_options.checkpoint = &full;
    analysis.sampleTtm(a11_7nm, n_chips, {}, record_options);

    for (const EvalPath resume_path :
         {EvalPath::kBatch, EvalPath::kScalar}) {
        // As if the writer was killed halfway: restore only the even
        // points, recompute the rest on the other engine.
        SweepCheckpoint half;
        half.bind(full.kernel(), full.seed(), full.totalPoints());
        for (std::size_t i = 0; i < full.totalPoints(); i += 2)
            half.record(i, full.value(i));

        auto resume_options = mcOptions(8, resume_path);
        resume_options.resume_from = &half;
        const auto resumed =
            analysis.sampleTtm(a11_7nm, n_chips, {}, resume_options);
        EXPECT_EQ(resumed, straight)
            << "resume path "
            << (resume_path == EvalPath::kBatch ? "batch" : "scalar");
    }
}

// ---------------------------------------------------------------- //
// Compile preconditions: configurations the kernel must refuse
// ---------------------------------------------------------------- //

TEST_F(KernelIdentityTest, TryCompileRefusesCustomYieldModel)
{
    // A custom yield model's dieYield() is arbitrary code the kernel
    // cannot replicate; compilation must decline so callers keep the
    // scalar path (unless every die pins its yield by override).
    class FlatYield : public YieldModel
    {
      public:
        double dieYield(SquareMm, double) const override { return 0.5; }
        std::string name() const override { return "flat"; }
    };
    TtmModel::Options options = modelOptions();
    options.yield = std::make_shared<FlatYield>();
    EXPECT_FALSE(CompiledDesign::tryCompile(a11_7nm,
                                            defaultTechnologyDb(),
                                            options, {}, n_chips)
                     .has_value());
    // And the sampling entry points must still work (scalar fallback).
    const UncertaintyAnalysis custom(defaultTechnologyDb(), options);
    EXPECT_EQ(custom.sampleTtm(a11_7nm, n_chips, {},
                               mcOptions(1, EvalPath::kBatch)),
              custom.sampleTtm(a11_7nm, n_chips, {},
                               mcOptions(1, EvalPath::kScalar)));
}

TEST_F(KernelIdentityTest, TryCompileRefusesInvalidBaseDesign)
{
    ChipDesign design = a11_7nm;
    design.dies[0].process = "no-such-node";
    EXPECT_FALSE(CompiledDesign::tryCompile(design, defaultTechnologyDb(),
                                            modelOptions(), {}, n_chips)
                     .has_value());
}

} // namespace
} // namespace ttmcas
