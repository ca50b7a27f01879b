#include "opt/pareto.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ttmcas {

bool
dominates(const std::vector<double>& a, const std::vector<double>& b,
          const std::vector<Objective>& directions)
{
    TTMCAS_REQUIRE(a.size() == b.size() && a.size() == directions.size(),
                   "objective arity mismatch");
    bool strictly_better = false;
    for (std::size_t k = 0; k < directions.size(); ++k) {
        const double va = directions[k] == Objective::Maximize ? a[k] : -a[k];
        const double vb = directions[k] == Objective::Maximize ? b[k] : -b[k];
        if (va < vb)
            return false;
        if (va > vb)
            strictly_better = true;
    }
    return strictly_better;
}

std::vector<std::size_t>
paretoFront(const std::vector<std::vector<double>>& scores,
            const std::vector<Objective>& directions)
{
    TTMCAS_REQUIRE(!directions.empty(), "need at least one objective");
    const std::size_t n = scores.size();
    const std::size_t d = directions.size();
    // Row-major copy with every objective turned into "larger is
    // better" (negation is exact, so comparisons match dominates()).
    std::vector<double> gain(n * d);
    for (std::size_t i = 0; i < n; ++i) {
        TTMCAS_REQUIRE(scores[i].size() == d, "objective arity mismatch");
        for (std::size_t k = 0; k < d; ++k) {
            const double v = scores[i][k];
            TTMCAS_REQUIRE(!std::isnan(v), "objective scores must not be NaN");
            gain[i * d + k] = directions[k] == Objective::Maximize ? v : -v;
        }
    }
    const auto row = [&](std::size_t i) { return gain.data() + i * d; };

    // A row can only be dominated by one that sorts before it in
    // descending lexicographic order. Sweeping in that order, a row is
    // dominated iff a row already on the front dominates it: whatever
    // dominates it is either on the front or, by transitivity,
    // dominated by a front row that dominates it too.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return std::lexicographical_compare(row(b), row(b) + d, row(a),
                                            row(a) + d);
    });
    const auto dominatesRow = [&](std::size_t a, std::size_t b) {
        const double* ga = row(a);
        const double* gb = row(b);
        bool strictly_better = false;
        for (std::size_t k = 0; k < d; ++k) {
            if (ga[k] < gb[k])
                return false;
            if (ga[k] > gb[k])
                strictly_better = true;
        }
        return strictly_better;
    };
    std::vector<std::size_t> front;
    for (const std::size_t i : order) {
        if (std::none_of(front.begin(), front.end(),
                         [&](std::size_t f) { return dominatesRow(f, i); }))
            front.push_back(i);
    }
    std::sort(front.begin(), front.end());
    return front;
}

} // namespace ttmcas
