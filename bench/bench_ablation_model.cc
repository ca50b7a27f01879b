/**
 * @file
 * Ablation: numerical and structural model choices.
 *
 *  1. CAS finite-difference step: how far a central difference of
 *     TTM in muW, at steps over orders of magnitude, lands from Eq. 8's
 *     closed-form derivative.
 *  2. Wafer diameter: the paper uses 300mm-equivalent wafers but notes
 *     some legacy nodes still run 200mm — how much does that move
 *     legacy-node TTM?
 *  3. Tapeout scheduling: naive whole-team conversion (the paper's
 *     Eq. 2 / team-size division) versus the block-parallel critical
 *     path of TapeoutPlan.
 *  4. Dynamic capacity: a Renesas-style 8-week fab outage and a
 *     two-year fab ramp through the timeline model.
 */

#include <cmath>
#include <cstdio>

#include "core/cas.hh"
#include "core/tapeout_plan.hh"
#include "core/timeline.hh"
#include "support/mathutil.hh"

#include "bench_common.hh"

int
main()
{
    using namespace ttmcas;
    using namespace ttmcas::bench;

    const TechnologyDb db = defaultTechnologyDb();

    // --- 1. CAS derivative step sweep --------------------------------
    banner("Ablation 1: CAS finite-difference step size");
    {
        const TtmModel model(db, a11ModelOptions());
        const CasModel cas(model);
        const ChipDesign design = designs::a11("7nm");
        const double exact = cas.dTtmDMu(design, 10e6, {}, "7nm");
        const double max_rate =
            model.technology().node("7nm").waferRate().value();
        const auto ttm_of_rate = [&](double rate) {
            MarketConditions market;
            market.setCapacityFactor("7nm", rate / max_rate);
            return model.evaluate(design, 10e6, market).total().value();
        };
        const auto sci = [](double value) {
            char text[32];
            std::snprintf(text, sizeof(text), "%.3e", value);
            return std::string(text);
        };
        Table table({"rel. step", "dTTM/dmuW", "rel. error"});
        for (double step : {1e-1, 1e-2, 1e-3, 1e-4, 1e-5}) {
            const double numeric =
                centralDifference(ttm_of_rate, max_rate, step);
            table.addRow({formatFixed(step, 5), sci(numeric),
                          sci(std::fabs(numeric / exact - 1.0))});
        }
        std::cout << table.render()
                  << "(exact: " << sci(exact)
                  << " = -(Q + W) / muW^2; the central difference's "
                     "truncation error is (h/muW)^2 until rounding in "
                     "the TTM difference takes over at small steps)\n\n";
    }

    // --- 2. Wafer diameter ------------------------------------------
    banner("Ablation 2: 200mm vs 300mm wafers at legacy nodes");
    {
        Table table({"Node", "TTM 300mm", "TTM 200mm", "delta"});
        table.setAlign(0, Align::Left);
        for (const char* node : {"250nm", "180nm", "130nm", "90nm"}) {
            TtmModel::Options small_wafer = a11ModelOptions();
            small_wafer.wafer = WaferGeometry(200.0);
            const double ttm300 = TtmModel(db, a11ModelOptions())
                                      .evaluate(designs::a11(node), 10e6)
                                      .total()
                                      .value();
            const double ttm200 = TtmModel(db, small_wafer)
                                      .evaluate(designs::a11(node), 10e6)
                                      .total()
                                      .value();
            table.addRow({node, formatFixed(ttm300, 1),
                          formatFixed(ttm200, 1),
                          "+" + formatFixed(ttm200 - ttm300, 1)});
        }
        std::cout << table.render()
                  << "(the paper's '200mm shortages may persist' "
                     "citation in numbers: same rate in wafers/week "
                     "on smaller wafers stretches legacy TTM hard)\n\n";
    }

    // --- 3. Tapeout scheduling --------------------------------------
    banner("Ablation 3: naive vs block-parallel tapeout conversion "
           "(A11 blocks)");
    {
        const TapeoutPlan plan = a11TapeoutPlan();
        Table table({"Node", "naive (wk)", "block-parallel (wk)",
                     "penalty"});
        table.setAlign(0, Align::Left);
        for (const char* node : {"28nm", "14nm", "7nm", "5nm"}) {
            const ProcessNode& process = db.node(node);
            table.addRow(
                {node,
                 formatFixed(plan.naiveCalendarWeeks(process, 100.0)
                                 .value(), 1),
                 formatFixed(plan.calendarWeeks(process, 100.0).value(),
                             1),
                 formatFixed(plan.parallelismPenalty(process, 100.0),
                             2) + "x"});
        }
        std::cout << table.render()
                  << "(the GPU block and the serialized top-level "
                     "integration set the critical path; the naive "
                     "conversion is the paper's optimistic bound)\n\n";
    }

    // --- 4. Dynamic capacity ----------------------------------------
    banner("Ablation 4: time-varying capacity (timeline model)");
    {
        const TimelineTtmModel model(TtmModel(db, a11ModelOptions()));
        const ChipDesign a11 = designs::a11("28nm");
        const double n = 50e6;

        const TimelineTtmResult calm =
            model.evaluate(a11, n, MarketTimeline{});
        const double start =
            calm.design_time.value() + calm.tapeout_time.value();

        MarketTimeline fire;
        fire.set("28nm", CapacityTimeline::outage(Weeks(start + 1.0),
                                                  Weeks(8.0)));
        const TimelineTtmResult after_fire = model.evaluate(a11, n, fire);

        MarketTimeline ramp;
        // A second line ramps from 30% to 100% over a year, starting
        // now; production begins degraded.
        ramp.set("28nm", CapacityTimeline::ramp(Weeks(0.0), Weeks(52.0),
                                                0.3, 6));
        const TimelineTtmResult during_ramp = model.evaluate(a11, n, ramp);

        Table table({"Scenario", "TTM (wk)"});
        table.setAlign(0, Align::Left);
        table.addRow({"calm market",
                      formatFixed(calm.total().value(), 1)});
        table.addRow({"8-week fab outage during production",
                      formatFixed(after_fire.total().value(), 1)});
        table.addRow({"production on a line ramping 30%->100% over 52wk",
                      formatFixed(during_ramp.total().value(), 1)});
        std::cout << table.render()
                  << "(a static capacity factor cannot express either "
                     "scenario: the outage costs its full duration, the "
                     "ramp costs the capacity deficit integrated over "
                     "the production window)\n\n";
    }
    return 0;
}
