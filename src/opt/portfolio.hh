#ifndef TTMCAS_OPT_PORTFOLIO_HH
#define TTMCAS_OPT_PORTFOLIO_HH

/**
 * @file
 * Portfolio planning: many products, shared foundry capacity.
 *
 * A design house rarely ships one chip. This planner assigns each
 * product of a portfolio to a process node and splits every node's
 * capacity among the products placed there (AllocationPlanner's
 * min-makespan rule), minimizing the portfolio's total lateness
 * against per-product deadlines:
 *
 *   lateness(P) = sum_p weight_p * max(0, TTM_p - deadline_p)
 *
 * Search: every product starts on its lowest-lateness node assuming a
 * private line; then a local search repeatedly tries moving one
 * product to another node (re-splitting both nodes' capacity) and
 * keeps the move when total lateness drops. Deterministic, and
 * guaranteed to terminate (lateness strictly decreases).
 */

#include <string>
#include <vector>

#include "core/allocation.hh"
#include "core/design.hh"
#include "core/ttm_model.hh"
#include "support/batch_control.hh"

namespace ttmcas {

/** One product in the portfolio. */
struct PortfolioProduct
{
    std::string name;
    /** Retargetable architecture (its node field is a placeholder). */
    ChipDesign design;
    double n_chips = 0.0;
    Weeks deadline{0.0};
    /** Lateness weight (revenue at stake, contractual penalty, ...). */
    double weight = 1.0;
};

/** One product's placement in a plan. */
struct PortfolioAssignment
{
    std::string product;
    std::string node;
    double share = 0.0; ///< of the node's capacity
    Weeks ttm{0.0};
    Weeks deadline{0.0};

    bool onTime() const { return ttm <= deadline; }
    Weeks lateness() const
    {
        return Weeks(std::max(0.0, ttm.value() - deadline.value()));
    }
};

/** A full portfolio plan. */
struct PortfolioPlan
{
    std::vector<PortfolioAssignment> assignments;
    /** Weighted total lateness (the optimization objective). */
    double total_weighted_lateness = 0.0;

    /** Count of on-time products. */
    std::size_t onTimeCount() const;
};

/** The planner. */
class PortfolioPlanner
{
  public:
    /**
     * Planner configuration. The product x node seeding matrix runs
     * through the batch driver (point = product * |nodes| + node). A
     * die that fits no node is a domain outcome, not a failure: it is
     * never recorded. Only numeric and injected faults land in the
     * report; under SkipAndRecord the affected (product, node) pair is
     * simply not a seed candidate (a product whose whole row failed
     * or was stopped then throws ModelError "fits no candidate
     * node"). Once seeding is done the local search checks the cancel
     * token between moves and returns the best plan found so far; it
     * stays serial to preserve first-improvement semantics, so plans
     * are identical for any thread count. A checkpoint binds seed 0.
     */
    struct Options : BatchControl
    {
        /** Candidate nodes (empty = every in-production node). */
        std::vector<std::string> candidate_nodes;
        /** Local-search move budget. */
        int max_moves = 200;
    };

    explicit PortfolioPlanner(TtmModel model);
    PortfolioPlanner(TtmModel model, Options options);

    /**
     * Plan the portfolio. Products that fit no candidate node (die
     * too big everywhere) throw ModelError.
     */
    PortfolioPlan plan(const std::vector<PortfolioProduct>& products)
        const;

    /** Evaluate a fixed product->node assignment (shares re-split). */
    PortfolioPlan
    evaluateAssignment(const std::vector<PortfolioProduct>& products,
                       const std::vector<std::string>& nodes) const;

  private:
    std::vector<std::string> candidates() const;

    TtmModel _model;
    Options _options;
};

} // namespace ttmcas

#endif // TTMCAS_OPT_PORTFOLIO_HH
