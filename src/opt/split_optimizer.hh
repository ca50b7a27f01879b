#ifndef TTMCAS_OPT_SPLIT_OPTIMIZER_HH
#define TTMCAS_OPT_SPLIT_OPTIMIZER_HH

/**
 * @file
 * Multi-process chip manufacturing planner (paper Section 7).
 *
 * The methodology tapes out the same architecture on a *primary* and a
 * *secondary* process node in parallel and splits the production
 * volume between them. For a split fraction f:
 *
 *   TTM(f)  = max( TTM_primary(f*n), TTM_secondary((1-f)*n) )
 *   cost(f) = cost_primary(f*n) + cost_secondary((1-f)*n)
 *             (two tapeouts, two mask sets — the methodology's price)
 *   CAS(f)  = Eq. 8 over *both* nodes of the combined TTM function
 *
 * The planner sweeps f and reports the split with the highest CAS,
 * which is how Fig. 14's production-split matrix is generated.
 */

#include <functional>
#include <string>
#include <vector>

#include "core/cas.hh"
#include "core/design.hh"
#include "core/market.hh"
#include "core/ttm_model.hh"
#include "econ/cost_model.hh"
#include "support/batch_control.hh"

namespace ttmcas {

/** Builds the architecture re-targeted to a given process node. */
using DesignFactory = std::function<ChipDesign(const std::string&)>;

/** A production plan over one or two nodes. */
struct ProductionPlan
{
    std::string primary;
    std::string secondary;        ///< empty for single-process plans
    double primary_fraction = 1.0;
    Weeks ttm{0.0};
    Dollars cost{0.0};
    double cas = 0.0;             ///< normalized (paper scale)

    bool singleProcess() const { return secondary.empty(); }
};

/** Planner over a fixed technology snapshot. */
class SplitPlanner
{
  public:
    /**
     * Planner configuration. optimizeCas runs its fraction sweep
     * through the batch driver: points [0, F) are the pass-1 TTM
     * evaluations (F = fraction count), [F, 2F) the pass-2 CAS
     * evaluations, and the fault injector arms pass-1 points only.
     * Under SkipAndRecord a failed or stopped fraction leaves the
     * race; when none survives, optimizeCas throws. The returned plan
     * is identical for any thread count (the argmax scan is serial).
     * A checkpoint binds seed 0.
     */
    struct Options : BatchControl
    {
        double derivative_rel_step = 1e-3;
        double cas_normalization = kCasNormalization;
        /** Candidate split fractions (default 0.01..1.00 step 0.01). */
        std::vector<double> fractions;
        /**
         * TTM tolerance of the CAS optimization (Section 7: "maximize
         * CAS while minimizing time-to-market"). Only fractions whose
         * combined TTM is within (1 + ttm_slack) of the best TTM over
         * the sweep compete on CAS. Without it, Eq. 8 is gamed by
         * binding TTM on a tiny latency-dominated secondary batch:
         * |dTTM/dmuW| collapses to ~0 and CAS diverges even though the
         * plan is strictly slower.
         */
        double ttm_slack = 0.01;
    };

    SplitPlanner(TtmModel model, CostModel costs);
    SplitPlanner(TtmModel model, CostModel costs, Options options);

    /** Combined TTM of a split (max of the two pipelines). */
    Weeks ttm(const DesignFactory& factory, double n_chips,
              const std::string& primary, const std::string& secondary,
              double primary_fraction,
              const MarketConditions& market = {}) const;

    /** Combined chip-creation cost of a split. */
    Dollars cost(const DesignFactory& factory, double n_chips,
                 const std::string& primary, const std::string& secondary,
                 double primary_fraction) const;

    /** Eq. 8 agility of the combined TTM over both nodes. */
    double cas(const DesignFactory& factory, double n_chips,
               const std::string& primary, const std::string& secondary,
               double primary_fraction,
               const MarketConditions& market = {}) const;

    /** Single-process plan (the Fig. 14 diagonal). */
    ProductionPlan singleProcessPlan(const DesignFactory& factory,
                                     double n_chips,
                                     const std::string& process,
                                     const MarketConditions& market = {})
        const;

    /**
     * Sweep split fractions for (primary, secondary) and return the
     * highest-CAS plan, with its TTM and cost filled in.
     */
    ProductionPlan optimizeCas(const DesignFactory& factory, double n_chips,
                               const std::string& primary,
                               const std::string& secondary,
                               const MarketConditions& market = {}) const;

  private:
    double combinedTtmWeeks(const DesignFactory& factory, double n_chips,
                            const std::string& primary,
                            const std::string& secondary,
                            double primary_fraction,
                            const MarketConditions& market) const;

    TtmModel _model;
    CostModel _costs;
    Options _options;
};

} // namespace ttmcas

#endif // TTMCAS_OPT_SPLIT_OPTIMIZER_HH
