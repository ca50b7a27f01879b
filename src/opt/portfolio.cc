#include "opt/portfolio.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "stats/batch_driver.hh"
#include "support/error.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace ttmcas {

std::size_t
PortfolioPlan::onTimeCount() const
{
    std::size_t count = 0;
    for (const auto& assignment : assignments) {
        if (assignment.onTime())
            ++count;
    }
    return count;
}

PortfolioPlanner::PortfolioPlanner(TtmModel model)
    : PortfolioPlanner(std::move(model), Options{})
{}

PortfolioPlanner::PortfolioPlanner(TtmModel model, Options options)
    : _model(std::move(model)), _options(std::move(options))
{
    TTMCAS_REQUIRE(_options.max_moves >= 0,
                   "move budget must be >= 0");
}

std::vector<std::string>
PortfolioPlanner::candidates() const
{
    if (!_options.candidate_nodes.empty())
        return _options.candidate_nodes;
    return _model.technology().availableNames();
}

PortfolioPlan
PortfolioPlanner::evaluateAssignment(
    const std::vector<PortfolioProduct>& products,
    const std::vector<std::string>& nodes) const
{
    TTMCAS_REQUIRE(products.size() == nodes.size(),
                   "one node per product required");
    TTMCAS_REQUIRE(!products.empty(), "portfolio must not be empty");

    // Group products by node and split each node's capacity.
    std::map<std::string, std::vector<std::size_t>> by_node;
    for (std::size_t i = 0; i < products.size(); ++i)
        by_node[nodes[i]].push_back(i);

    const AllocationPlanner allocator(_model);
    PortfolioPlan plan;
    plan.assignments.resize(products.size());

    for (const auto& [node, indices] : by_node) {
        std::vector<FoundryCustomer> customers;
        customers.reserve(indices.size());
        for (std::size_t index : indices) {
            FoundryCustomer customer;
            customer.name = products[index].name;
            customer.design =
                retargetDesign(products[index].design, node);
            customer.n_chips = products[index].n_chips;
            customers.push_back(std::move(customer));
        }
        const auto outcomes =
            allocator.minMakespanAllocation(customers, node);
        for (std::size_t k = 0; k < indices.size(); ++k) {
            const std::size_t index = indices[k];
            PortfolioAssignment assignment;
            assignment.product = products[index].name;
            assignment.node = node;
            assignment.share = outcomes[k].share;
            assignment.ttm = outcomes[k].ttm;
            assignment.deadline = products[index].deadline;
            plan.assignments[index] = std::move(assignment);
        }
    }

    plan.total_weighted_lateness = 0.0;
    for (std::size_t i = 0; i < products.size(); ++i) {
        plan.total_weighted_lateness +=
            products[i].weight *
            plan.assignments[i].lateness().value();
    }
    return plan;
}

PortfolioPlan
PortfolioPlanner::plan(const std::vector<PortfolioProduct>& products) const
{
    TTMCAS_REQUIRE(!products.empty(), "portfolio must not be empty");
    for (const auto& product : products) {
        TTMCAS_REQUIRE(product.n_chips > 0.0,
                       "product '" + product.name +
                           "' needs a positive volume");
        TTMCAS_REQUIRE(product.weight > 0.0,
                       "product '" + product.name +
                           "' needs a positive weight");
        TTMCAS_REQUIRE(product.deadline.value() > 0.0,
                       "product '" + product.name +
                           "' needs a positive deadline");
    }
    const std::vector<std::string> nodes = candidates();
    TTMCAS_REQUIRE(!nodes.empty(), "no candidate nodes");

    const obs::ScopedSpan span("opt", "PortfolioPlanner::plan");
    static const obs::Counter seed_counter("opt.portfolio_seed_points");
    static const obs::Counter move_counter("opt.portfolio_moves");

    // Seed: each product's best node assuming a private line. The
    // product x node TTM matrix runs through the batch driver (no
    // value = die does not fit); the per-product argmin scans stay
    // serial so ties break identically for any thread count.
    const std::size_t node_count = nodes.size();
    PointKernel<std::optional<double>> seeds;
    seeds.name = "PortfolioPlanner::plan";
    seeds.count = products.size() * node_count;
    seeds.nonfinite = DiagCode::NonFiniteTtm;
    seeds.counter = &seed_counter;
    seeds.point = [&](std::size_t flat) -> std::optional<double> {
        const PortfolioProduct& product = products[flat / node_count];
        const std::string& node = nodes[flat % node_count];
        try {
            return _model
                .evaluate(retargetDesign(product.design, node),
                          product.n_chips)
                .total()
                .value();
        } catch (const NumericError&) {
            throw;
        } catch (const ModelError&) {
            // Infeasibility (die fit, dead node) is a domain outcome;
            // only numeric faults become diagnostics.
            return std::nullopt;
        }
    };
    seeds.save = [](const std::optional<double>& ttm, double* slots) {
        slots[0] = ttm.value_or(std::numeric_limits<double>::infinity());
    };
    seeds.restore = [](std::size_t, const double* slots) {
        return std::isinf(slots[0]) ? std::nullopt
                                    : std::optional<double>(slots[0]);
    };
    const PointBatch<std::optional<double>> seed_ttm =
        runPoints(_options, seeds);
    std::vector<std::string> assignment;
    for (std::size_t i = 0; i < products.size(); ++i) {
        std::string best;
        double best_ttm = 0.0;
        for (std::size_t m = 0; m < node_count; ++m) {
            const std::size_t flat = i * node_count + m;
            // A failed pair is not a seed candidate, like a non-fit.
            if (!seed_ttm.done(flat) || !seed_ttm.values[flat])
                continue;
            const double ttm = *seed_ttm.values[flat];
            if (best.empty() || ttm < best_ttm) {
                best = nodes[m];
                best_ttm = ttm;
            }
        }
        TTMCAS_REQUIRE(!best.empty(),
                       "product '" + products[i].name +
                           "' fits no candidate node");
        assignment.push_back(best);
    }

    PortfolioPlan best_plan = evaluateAssignment(products, assignment);

    // Local search: single-product moves, first-improvement. A
    // cooperative stop between moves keeps the best plan found so
    // far — every intermediate plan is a complete, feasible plan, so
    // there is nothing partial to discard.
    int moves = 0;
    bool improved = true;
    while (improved && moves < _options.max_moves) {
        improved = false;
        if (_options.cancel != nullptr &&
            _options.cancel->stopRequested())
            break;
        for (std::size_t i = 0;
             i < products.size() && moves < _options.max_moves; ++i) {
            if (_options.cancel != nullptr &&
                _options.cancel->stopRequested())
                break;
            for (const std::string& node : nodes) {
                if (node == assignment[i])
                    continue;
                std::vector<std::string> trial = assignment;
                trial[i] = node;
                PortfolioPlan trial_plan;
                try {
                    trial_plan = evaluateAssignment(products, trial);
                } catch (const ModelError&) {
                    continue; // move infeasible (die fit, dead node)
                }
                ++moves;
                move_counter.increment();
                if (trial_plan.total_weighted_lateness <
                    best_plan.total_weighted_lateness - 1e-9) {
                    best_plan = std::move(trial_plan);
                    assignment = std::move(trial);
                    improved = true;
                    break;
                }
            }
        }
    }
    return best_plan;
}

} // namespace ttmcas
