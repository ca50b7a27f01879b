#ifndef TTMCAS_OPT_PARETO_HH
#define TTMCAS_OPT_PARETO_HH

/**
 * @file
 * Pareto-front extraction for multi-objective design-space sweeps
 * (IPC vs TTM vs cost in the cache study; TTM vs cost vs CAS in the
 * chiplet study).
 */

#include <cstddef>
#include <vector>

#include "support/error.hh"

namespace ttmcas {

/** Optimization direction per objective. */
enum class Objective
{
    Minimize,
    Maximize
};

/**
 * Indices of the non-dominated rows of @p scores.
 *
 * @param scores one row per candidate, one column per objective
 * @param directions per-column direction; size must match the rows
 *
 * A row dominates another when it is at least as good in every
 * objective and strictly better in one. Duplicate rows are all kept.
 * Returned in ascending index order. Every row must have one score per
 * direction and no NaN score (ModelError otherwise). O(n log n) for
 * the sort plus O(n * front size) for the sweep.
 */
std::vector<std::size_t>
paretoFront(const std::vector<std::vector<double>>& scores,
            const std::vector<Objective>& directions);

/** True when row @p a dominates row @p b under @p directions. */
bool dominates(const std::vector<double>& a, const std::vector<double>& b,
               const std::vector<Objective>& directions);

} // namespace ttmcas

#endif // TTMCAS_OPT_PARETO_HH
