#include "core/cas.hh"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/reference_designs.hh"
#include "support/error.hh"
#include "support/mathutil.hh"
#include "tech/default_dataset.hh"

namespace ttmcas {
namespace {

/**
 * Eq. 8's slope sum by the central difference the closed form
 * replaced: each node's effective rate perturbed by h = 1e-3 * mu
 * through its capacity factor, every other market setting kept.
 */
double
centralDifferenceSlopeSum(const TtmModel& model, const ChipDesign& design,
                          double n_chips, const MarketConditions& market)
{
    double slope_sum = 0.0;
    for (const std::string& process : design.processNodes()) {
        const ProcessNode& node = model.technology().node(process);
        const double max_rate = node.waferRate().value();
        const auto ttm_of_rate = [&](double rate) {
            MarketConditions perturbed = market;
            perturbed.setCapacityFactor(process, rate / max_rate);
            return model.evaluate(design, n_chips, perturbed)
                .total()
                .value();
        };
        slope_sum += std::fabs(centralDifference(
            ttm_of_rate, market.effectiveWaferRate(node).value(), 1e-3));
    }
    return slope_sum;
}

/**
 * A market whose 12nm queue backlog makes Zen 2's I/O die finish
 * fabrication at exactly the fab time of its 7nm compute dies: the
 * backlog is stepped one ulp at a time until the two fab times are
 * the same double.
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

class CasModelTest : public ::testing::Test
{
  protected:
    CasModelTest()
        : cas(TtmModel(defaultTechnologyDb(), [] {
              TtmModel::Options options;
              options.tapeout_engineers = kA11TapeoutEngineers;
              return options;
          }()))
    {}

    CasModel cas;
};

TEST_F(CasModelTest, DerivativeIsNegative)
{
    // More capacity -> less time, so dTTM/dmuW < 0 (Section 4).
    const ChipDesign design = designs::a11("7nm");
    EXPECT_LT(cas.dTtmDMu(design, 10e6, MarketConditions{}, "7nm"), 0.0);
}

TEST_F(CasModelTest, DerivativeMatchesAnalyticSingleNodeForm)
{
    // With no queue, TTM depends on mu only through N_W/mu, so
    // dTTM/dmu = -N_W / mu^2 exactly, here in the model's op order.
    const ChipDesign design = designs::a11("7nm");
    const TtmModel& model = cas.ttmModel();
    const double wafers = model.waferDemand(design, 10e6, "7nm").value();
    const double mu = model.technology().node("7nm").waferRate().value();
    const double expected = -((wafers / mu) / mu);
    EXPECT_EQ(cas.dTtmDMu(design, 10e6, MarketConditions{}, "7nm"),
              expected);
}

TEST_F(CasModelTest, RawCasIsInverseOfSlopeSum)
{
    const ChipDesign design = designs::a11("7nm");
    const double slope =
        cas.dTtmDMu(design, 10e6, MarketConditions{}, "7nm");
    EXPECT_EQ(cas.rawCas(design, 10e6), 1.0 / std::abs(slope));
}

TEST_F(CasModelTest, NormalizationOnlyScales)
{
    const ChipDesign design = designs::a11("7nm");
    EXPECT_NEAR(cas.cas(design, 10e6) * kCasNormalization,
                cas.rawCas(design, 10e6), 1e-9);
}

TEST_F(CasModelTest, FewerWafersMeansHigherCas)
{
    // 7nm needs far fewer wafers than 40nm for the same chips.
    EXPECT_GT(cas.cas(designs::a11("7nm"), 10e6),
              cas.cas(designs::a11("40nm"), 10e6));
}

TEST_F(CasModelTest, CasFallsAsCapacityFalls)
{
    // CAS ~ mu^2/N_W for single-node designs: lower capacity, lower CAS.
    const ChipDesign design = designs::a11("7nm");
    MarketConditions low;
    low.setCapacityFactor("7nm", 0.4);
    EXPECT_LT(cas.cas(design, 10e6, low),
              cas.cas(design, 10e6, MarketConditions{}));
}

TEST_F(CasModelTest, MultiNodeDesignSumsSlopes)
{
    const ChipDesign zen = designs::zen2(designs::Zen2Config::Original);
    const MarketConditions market;
    const double s7 = std::abs(cas.dTtmDMu(zen, 10e6, market, "7nm"));
    const double s12 = std::abs(cas.dTtmDMu(zen, 10e6, market, "12nm"));
    EXPECT_EQ(cas.rawCas(zen, 10e6, market), 1.0 / (s7 + s12));
}

TEST_F(CasModelTest, NonBottleneckNodeContributesNoSlope)
{
    // At full capacity the 12nm I/O die finishes fabrication well before
    // the 7nm compute dies (Section 6.5): 12nm capacity does not move
    // the packaging synchronization point.
    const ChipDesign zen = designs::zen2(designs::Zen2Config::Original);
    EXPECT_EQ(cas.dTtmDMu(zen, 10e6, MarketConditions{}, "12nm"), 0.0);
    EXPECT_LT(cas.dTtmDMu(zen, 10e6, MarketConditions{}, "7nm"), 0.0);
}

TEST_F(CasModelTest, ClosedFormMatchesCentralDifference)
{
    // The old central difference (h = 1e-3 mu) carries a (h/mu)^2 =
    // 1e-6 truncation error; away from a bottleneck switch it is the
    // only difference from the closed form.
    const TtmModel& model = cas.ttmModel();
    const std::vector<ChipDesign> designs{
        designs::a11("7nm"),
        designs::zen2(designs::Zen2Config::Original),
        designs::zen2(designs::Zen2Config::OriginalWithInterposer),
        designs::syntheticChipA()};
    std::size_t points = 0;
    for (const ChipDesign& design : designs) {
        for (const bool queued : {false, true}) {
            for (int percent = 1; percent <= 100; ++percent) {
                MarketConditions market;
                market.setGlobalCapacityFactor(percent / 100.0);
                if (queued) {
                    for (const std::string& process : design.processNodes())
                        market.setQueueWeeks(process, Weeks(2.0));
                }
                const double exact = cas.rawCas(design, 10e6, market);
                const double numeric =
                    1.0 /
                    centralDifferenceSlopeSum(model, design, 10e6, market);
                EXPECT_NEAR(numeric / exact, 1.0, 2e-6)
                    << design.name << " at " << percent << "%"
                    << (queued ? " queued" : "");
                ++points;
            }
        }
    }
    EXPECT_GE(points, 400u);
}

TEST_F(CasModelTest, ExactBottleneckTieTakesHalfOfEachSlope)
{
    const TtmModel& model = cas.ttmModel();
    const ChipDesign zen = designs::zen2(designs::Zen2Config::Original);
    const double n = 10e6;
    const MarketConditions tied = tiedZen2Market(model, zen, n);
    const TtmResult result = model.evaluate(zen, n, tied);
    ASSERT_EQ(result.nodeDetail("7nm").fabTime(),
              result.nodeDetail("12nm").fabTime());

    // Each node's one-sided slope, in the model's op order.
    const auto slope = [&](const std::string& process) {
        const NodeFabDetail& node = result.nodeDetail(process);
        const double rate = node.effective_rate.value();
        return (node.queue_time.value() + node.wafers.value() / rate) /
               rate;
    };
    const double s7 = slope("7nm");
    const double s12 = slope("12nm");
    ASSERT_NE(s7, s12);
    EXPECT_EQ(cas.dTtmDMu(zen, n, tied, "7nm"), -(s7 * 0.5));
    EXPECT_EQ(cas.dTtmDMu(zen, n, tied, "12nm"), -(s12 * 0.5));
    const double raw = 1.0 / ((s7 + s12) * 0.5);
    EXPECT_EQ(cas.rawCas(zen, n, tied), raw);

    // The rule is the h -> 0 limit of the central difference: at h =
    // 1e-3 mu the difference quotient is within ~h/mu of half the sum.
    EXPECT_NEAR(centralDifferenceSlopeSum(model, zen, n, tied) /
                    ((s7 + s12) * 0.5),
                1.0, 2e-3);

    // The compiled kernel finds the same tie (the kernel identity
    // suite covers casBatch lanes and the sweep).
    const auto compiled = CompiledDesign::tryCompile(
        zen, model.technology(), model.options(), tied, n);
    ASSERT_TRUE(compiled.has_value());
    double one = 0.0;
    ASSERT_TRUE(compiled->casOne(CompiledDesign::kNominal,
                                 kCasNormalization, nullptr, &one));
    EXPECT_EQ(one, raw / kCasNormalization);
}

TEST_F(CasModelTest, CapacitySweepShapes)
{
    const ChipDesign design = designs::a11("7nm");
    const auto points = cas.capacitySweep(design, 10e6,
                                          {0.25, 0.5, 0.75, 1.0});
    ASSERT_EQ(points.size(), 4u);
    for (std::size_t i = 1; i < points.size(); ++i) {
        // TTM falls and CAS rises as capacity recovers.
        EXPECT_LT(points[i].ttm.value(), points[i - 1].ttm.value());
        EXPECT_GT(points[i].cas, points[i - 1].cas);
    }
}

TEST_F(CasModelTest, QueueReducesMaxCas)
{
    // Section 6.3: queue backlog makes TTM more capacity-sensitive.
    const ChipDesign design = designs::a11("7nm");
    MarketConditions queued;
    queued.setQueueWeeks("7nm", Weeks(1.0));
    EXPECT_LT(cas.cas(design, 10e6, queued),
              cas.cas(design, 10e6, MarketConditions{}));
}

TEST_F(CasModelTest, SweepRejectsNonPositiveFractions)
{
    const ChipDesign design = designs::a11("7nm");
    EXPECT_THROW(cas.capacitySweep(design, 1e6, {0.0}), ModelError);
}

TEST_F(CasModelTest, DerivativeOfIdleNodeThrows)
{
    const ChipDesign design = designs::a11("7nm");
    EXPECT_THROW(cas.dTtmDMu(design, 1e6, MarketConditions{}, "10nm"),
                 ModelError);
}

TEST(CasModelConstructionTest, RejectsBadOptions)
{
    CasModel::Options bad_norm;
    bad_norm.normalization = -1.0;
    EXPECT_THROW(CasModel(TtmModel(defaultTechnologyDb()), bad_norm),
                 ModelError);
}

} // namespace
} // namespace ttmcas
