/**
 * @file
 * The flat ensemble path's identity contract: for every seeded path,
 * EnsembleRunner::evaluatePaths must give the TTM and CAS of the
 * scalar chain bit for bit — sampleScenarioPath, lowerScenarioPath,
 * TimelineTtmModel::evaluate, then CasModel::cas at the path's
 * time-averaged capacity factors — with the same regime label, and a
 * path the chain cannot evaluate must fail with the chain's own
 * diagnostic. The scenarios cover zero-capacity outage phases, Hawkes
 * shocks, multi-node designs, queue backlogs and a design process the
 * spec does not disrupt.
 */

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cas.hh"
#include "core/ensemble.hh"
#include "core/reference_designs.hh"
#include "core/timeline.hh"
#include "support/outcome.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

/** The scalar chain's value of one path, or its diagnostic. */
struct ScalarPath
{
    bool ok = false;
    EnsemblePath value;
    Diagnostic diagnostic;
};

ScalarPath
scalarChain(const ChipDesign& design, double n_chips,
            const MarketConditions& market, const EnsembleSpec& spec,
            std::uint64_t seed, std::size_t k)
{
    ScalarPath out;
    try {
        const TtmModel model(defaultTechnologyDb());
        const ScenarioPath scenario = sampleScenarioPath(spec, seed, k);
        out.value.label = classifyScenarioPath(scenario, spec);
        std::set<std::string> unique;
        for (const Die& die : design.dies)
            unique.insert(die.process);
        const std::vector<std::string> processes(unique.begin(),
                                                 unique.end());
        std::map<std::string, double> queue_weeks;
        for (const auto& [node, weeks] : market.queueWeeksByNode())
            queue_weeks.emplace(node, weeks.value());
        out.value.ttm =
            finiteOr(TimelineTtmModel(model)
                         .evaluate(design, n_chips,
                                   lowerScenarioPath(scenario, market,
                                                     processes),
                                   queue_weeks)
                         .total()
                         .value(),
                     DiagCode::NonFiniteTtm, "ensemble TTM");
        MarketConditions averaged = market;
        for (const std::string& process : processes) {
            const auto it = scenario.find(process);
            if (it != scenario.end())
                averaged.setCapacityFactor(
                    process, market.capacityFactor(process) *
                                 it->second.meanCapacity());
        }
        out.value.cas =
            finiteOr(CasModel(model).cas(design, n_chips, averaged),
                     DiagCode::NonFiniteCas, "ensemble CAS");
        out.ok = true;
    } catch (const std::exception&) {
        out.diagnostic = currentDiagnostic(k);
    }
    return out;
}

struct Coverage
{
    std::size_t outage_phases = 0; ///< zero-capacity phases on a design node
    std::size_t shocked_paths = 0; ///< paths with at least one Hawkes event
    std::size_t labels[kRegimeCount] = {};
    std::size_t failed = 0; ///< paths the scalar chain cannot evaluate
};

/**
 * Compare every path of one run against the scalar chain and count
 * what the sampled paths exercised.
 */
Coverage
expectFlatEqualsScalar(const ChipDesign& design, double n_chips,
                       const MarketConditions& market,
                       const EnsembleSpec& spec, std::size_t paths,
                       std::size_t threads = 1)
{
    EnsembleOptions options;
    options.paths = paths;
    options.seed = 0xe5e;
    options.parallel.threads = threads;
    options.failure_policy = FailurePolicy::skipAndRecord(1.0);
    const EnsembleRunner runner(defaultTechnologyDb());
    const PointBatch<EnsemblePath> batch =
        runner.evaluatePaths(design, n_chips, market, spec, options);

    Coverage coverage;
    auto failure = batch.failures.diagnostics.begin();
    for (std::size_t k = 0; k < paths; ++k) {
        const ScalarPath expected =
            scalarChain(design, n_chips, market, spec, options.seed, k);
        if (!expected.ok) {
            ++coverage.failed;
            EXPECT_FALSE(batch.done(k)) << "path " << k;
            if (failure == batch.failures.diagnostics.end() ||
                failure->point_index != k) {
                ADD_FAILURE() << "path " << k << " has no diagnostic";
                continue;
            }
            EXPECT_EQ(failure->code, expected.diagnostic.code);
            EXPECT_EQ(failure->message, expected.diagnostic.message);
            EXPECT_EQ(failure->file, expected.diagnostic.file);
            EXPECT_EQ(failure->line, expected.diagnostic.line);
            ++failure;
            continue;
        }
        if (!batch.done(k)) {
            ADD_FAILURE() << "path " << k << " failed; the scalar chain "
                          << "evaluates it";
            continue;
        }
        const EnsemblePath& flat = batch.values[k];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.ttm),
                  std::bit_cast<std::uint64_t>(expected.value.ttm))
            << "path " << k << ": " << flat.ttm << " vs "
            << expected.value.ttm;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.cas),
                  std::bit_cast<std::uint64_t>(expected.value.cas))
            << "path " << k << ": " << flat.cas << " vs "
            << expected.value.cas;
        EXPECT_EQ(flat.label, expected.value.label) << "path " << k;
        ++coverage.labels[static_cast<std::size_t>(flat.label)];

        const ScenarioPath scenario =
            sampleScenarioPath(spec, options.seed, k);
        const std::vector<std::string> processes = design.processNodes();
        bool shocked = false;
        for (const auto& [node, sampled] : scenario) {
            shocked = shocked || !sampled.events.empty();
            if (std::find(processes.begin(), processes.end(), node) ==
                processes.end())
                continue;
            for (const CapacityPhase& phase : sampled.phases)
                coverage.outage_phases += phase.factor == 0.0;
        }
        coverage.shocked_paths += shocked;
    }
    EXPECT_EQ(failure, batch.failures.diagnostics.end());
    return coverage;
}

/** Sticky zero-capacity outages and dense clustered shocks. */
DisruptionProcessParams
harshProcess()
{
    DisruptionProcessParams params;
    params.markov.transition = {{{0.88, 0.07, 0.05},
                                 {0.10, 0.80, 0.10},
                                 {0.05, 0.25, 0.70}}};
    params.markov.capacity = {1.0, 0.5, 0.0};
    params.markov.recovery_ramp_weeks = 6.0;
    params.markov.recovery_ramp_steps = 3;
    params.hawkes.mu = 0.1;
    params.hawkes.alpha = 0.6;
    params.hawkes.beta = 0.5;
    params.hawkes.shock_depth_min = 0.3;
    params.hawkes.shock_depth_max = 0.9;
    params.hawkes.shock_weeks = 3.0;
    return params;
}

TEST(EnsembleIdentityTest, SingleNodeDefaultSpecMatchesScalarChain)
{
    const ChipDesign a11 = designs::a11("7nm");
    MarketConditions market;
    market.setGlobalCapacityFactor(0.85);
    const Coverage coverage = expectFlatEqualsScalar(
        a11, 25e6, market, EnsembleSpec::defaultsFor({"7nm"}), 256);
    for (std::size_t r = 0; r < kRegimeCount; ++r)
        EXPECT_GT(coverage.labels[r], 0u) << regimeName(Regime(r));
    EXPECT_GT(coverage.outage_phases, 0u);
    EXPECT_GT(coverage.shocked_paths, 0u);
}

TEST(EnsembleIdentityTest, MultiNodeQueuedDesignMatchesScalarChain)
{
    // Three nodes (7nm compute, 12nm I/O, 65nm interposer), backlogs on
    // two of them, and a spec that disrupts 7nm harshly, 12nm with the
    // defaults, leaves 65nm alone and names a node the design lacks.
    const ChipDesign zen2 =
        designs::zen2(designs::Zen2Config::OriginalWithInterposer);
    MarketConditions market;
    market.setGlobalCapacityFactor(0.9);
    market.setCapacityFactor("12nm", 0.7);
    market.setQueueWeeks("7nm", Weeks(3.0));
    market.setQueueWeeks("12nm", Weeks(1.25));
    EnsembleSpec spec = EnsembleSpec::defaultsFor({"12nm"});
    spec.horizon_weeks = 78.0;
    spec.step_weeks = 1.5;
    spec.nodes.emplace("7nm", harshProcess());
    spec.nodes.emplace("28nm", harshProcess());
    const Coverage coverage =
        expectFlatEqualsScalar(zen2, 40e6, market, spec, 200);
    EXPECT_EQ(coverage.failed, 0u);
    EXPECT_GT(coverage.labels[static_cast<std::size_t>(Regime::Outage)],
              0u);
    EXPECT_GT(coverage.outage_phases, 0u);
    EXPECT_GT(coverage.shocked_paths, 100u);
}

TEST(EnsembleIdentityTest, FourThreadsMatchScalarChain)
{
    const ChipDesign zen2 = designs::zen2(designs::Zen2Config::Original);
    MarketConditions market;
    market.setQueueWeeks("12nm", Weeks(2.0));
    EnsembleSpec spec = EnsembleSpec::defaultsFor({"7nm", "12nm"});
    spec.nodes["7nm"] = harshProcess();
    expectFlatEqualsScalar(zen2, 20e6, market, spec, 64, 4);
}

TEST(EnsembleIdentityTest, StalledNodeFailsEveryPathLikeScalarChain)
{
    // 12nm at zero capacity never finishes its wafers: the timeline
    // throws after each path's sampling, and so must the flat path.
    const ChipDesign zen2 = designs::zen2(designs::Zen2Config::Original);
    MarketConditions market;
    market.setCapacityFactor("12nm", 0.0);
    EXPECT_EQ(expectFlatEqualsScalar(
                  zen2, 20e6, market,
                  EnsembleSpec::defaultsFor({"7nm", "12nm"}), 8)
                  .failed,
              8u);
    // Undisrupted, the stalled node fails in the per-run plan instead.
    EXPECT_EQ(expectFlatEqualsScalar(zen2, 20e6, market,
                                     EnsembleSpec::defaultsFor({"7nm"}), 8)
                  .failed,
              8u);
}

TEST(EnsembleIdentityTest, InvalidUpstreamFailsEveryPathLikeScalarChain)
{
    // A process the technology database lacks: the upstream TTM the run
    // hoists throws, so every path must carry the timeline's error.
    ChipDesign design = designs::a11("7nm");
    design.dies.front().process = "3nm-imaginary";
    EXPECT_EQ(expectFlatEqualsScalar(
                  design, 10e6, MarketConditions{},
                  EnsembleSpec::defaultsFor({"3nm-imaginary"}), 6)
                  .failed,
              6u);
    // A non-positive chip count fails the same way.
    EXPECT_EQ(expectFlatEqualsScalar(designs::a11("7nm"), 0.0,
                                     MarketConditions{},
                                     EnsembleSpec::defaultsFor({"7nm"}), 4)
                  .failed,
              4u);
}

TEST(EnsembleIdentityTest, EventCapFailureMatchesScalarChain)
{
    // Branching ratio 0.95 at the maximum rate: a cascade passes the
    // per-path event cap while sampling, on either path.
    DisruptionProcessParams params;
    params.hawkes.mu = 8.0;
    params.hawkes.alpha = 0.95;
    EnsembleSpec spec;
    spec.horizon_weeks = 1040.0;
    spec.step_weeks = 52.0;
    spec.nodes.emplace("7nm", params);
    EXPECT_EQ(expectFlatEqualsScalar(designs::a11("7nm"), 10e6,
                                     MarketConditions{}, spec, 2)
                  .failed,
              2u);
}

} // namespace
} // namespace ttmcas
