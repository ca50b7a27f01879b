#include "opt/chiplet_explorer.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

#include "opt/pareto.hh"
#include "stats/batch_driver.hh"
#include "support/error.hh"

namespace ttmcas {

namespace {

/** Nominal factor vector: every Eq. 1-7 input at its base value. */
constexpr CompiledDesign::Factors kNominalFactors = {1.0, 1.0, 1.0,
                                                    1.0, 1.0, 1.0};

/** Per-candidate evaluation result (the three checkpointed values). */
struct CandidateValue
{
    double ttm = 0.0;
    double cas = 0.0;
    double cost = 0.0;
};

} // namespace

std::size_t
ChipletSweepSpec::candidateCount() const
{
    return partitions.size() * nodes.size() * redundancy.size() *
           split_fractions.size();
}

std::vector<std::string>
ChipletSweepSpec::violations() const
{
    std::vector<std::string> all;
    if (partitions.empty())
        all.push_back("partitions must not be empty");
    for (int count : partitions) {
        if (count < 1 || count > 1024) {
            all.push_back("partitions entries must be within [1, 1024]");
            break;
        }
    }
    if (nodes.empty())
        all.push_back("nodes must not be empty");
    for (const std::string& node : nodes) {
        if (node.empty()) {
            all.push_back("nodes contains an empty node name");
            break;
        }
    }
    if (redundancy.empty())
        all.push_back("redundancy must not be empty");
    for (int spares : redundancy) {
        if (spares < 0 || spares > 16) {
            all.push_back("redundancy entries must be within [0, 16]");
            break;
        }
    }
    if (split_fractions.empty())
        all.push_back("split_fractions must not be empty");
    bool any_split = false;
    for (double fraction : split_fractions) {
        if (!std::isfinite(fraction) || fraction <= 0.0 ||
            fraction > 1.0) {
            all.push_back(
                "split_fractions entries must be finite in (0, 1]");
            break;
        }
        if (fraction < 1.0)
            any_split = true;
    }
    if (any_split && secondary_node.empty())
        all.push_back("split_fractions below 1 require a secondary_node");
    // Per-axis caps first so the cross product cannot overflow
    // (kMaxChipletCandidates^4 still fits 64 bits comfortably).
    if (partitions.size() > kMaxChipletCandidates ||
        nodes.size() > kMaxChipletCandidates ||
        redundancy.size() > kMaxChipletCandidates ||
        split_fractions.size() > kMaxChipletCandidates) {
        all.push_back("each sweep axis must have at most " +
                      std::to_string(kMaxChipletCandidates) +
                      " entries");
    } else if (candidateCount() > kMaxChipletCandidates) {
        all.push_back("candidate grid has " +
                      std::to_string(candidateCount()) +
                      " points, more than the limit of " +
                      std::to_string(kMaxChipletCandidates));
    }
    for (const std::string& violation : cost.violations())
        all.push_back("cost: " + violation);
    return all;
}

ChipletSweepSpec
ChipletSweepSpec::defaultsFor(const std::vector<std::string>& processes)
{
    ChipletSweepSpec spec;
    spec.nodes = processes;
    return spec;
}

ChipletCandidate
candidateAt(const ChipletSweepSpec& spec, std::size_t index)
{
    // Mixed-radix decode, split fastest / partitions slowest: the
    // canonical enumeration every caller (checkpoints, result JSON,
    // cache keys) agrees on.
    ChipletCandidate candidate;
    std::size_t i = index;
    const std::size_t splits = spec.split_fractions.size();
    candidate.split_fraction = spec.split_fractions[i % splits];
    i /= splits;
    const std::size_t spares = spec.redundancy.size();
    candidate.spares = spec.redundancy[i % spares];
    i /= spares;
    const std::size_t nodes = spec.nodes.size();
    candidate.node = spec.nodes[i % nodes];
    i /= nodes;
    candidate.partitions = spec.partitions[i];
    return candidate;
}

ChipletExplorer::ChipletExplorer(TechnologyDb db,
                                 TtmModel::Options model_options,
                                 CostModel::Options cost_options)
    : _db(std::move(db)), _model_options(std::move(model_options)),
      _cost_options(cost_options)
{}

ChipDesign
ChipletExplorer::partitionDesign(const ChipDesign& base, int partitions,
                                 const std::string& node)
{
    TTMCAS_REQUIRE(partitions >= 1, "partitions must be >= 1");
    const double total = base.totalTransistorsPerChip();
    double unique = 0.0;
    for (const Die& die : base.dies)
        unique += die.unique_transistors;

    ChipDesign design;
    design.name = base.name + "-c" + std::to_string(partitions) + "@" +
                  node;
    design.design_time = base.design_time;
    Die chiplet;
    chiplet.name = "chiplet";
    chiplet.process = node;
    // The budget splits evenly across identical chiplets; the type is
    // taped out once, so unique transistors shrink with partitioning
    // (the paper's chiplet-reuse advantage) and clamp to the total.
    chiplet.total_transistors =
        total / static_cast<double>(partitions);
    chiplet.unique_transistors = std::min(
        unique / static_cast<double>(partitions),
        chiplet.total_transistors);
    chiplet.count_per_package = static_cast<double>(partitions);
    design.dies.push_back(std::move(chiplet));
    return design;
}

ChipletParetoResult
ChipletExplorer::run(const ChipDesign& base, double n_chips,
                     const MarketConditions& market,
                     const ChipletSweepSpec& spec,
                     const ChipletExplorerOptions& options) const
{
    {
        const std::vector<std::string> violations = spec.violations();
        if (!violations.empty()) {
            std::string message = "ChipletSweepSpec invalid:";
            for (const std::string& violation : violations)
                message += " " + violation + ";";
            throw ModelError(message);
        }
    }
    {
        // Unknown nodes fail the whole sweep up front, all at once.
        std::set<std::string> unknown;
        for (const std::string& node : spec.nodes) {
            if (!_db.has(node))
                unknown.insert(node);
        }
        if (!spec.secondary_node.empty() && !_db.has(spec.secondary_node))
            unknown.insert(spec.secondary_node);
        if (!unknown.empty()) {
            std::string message = "chiplet sweep nodes unknown to the "
                                  "technology:";
            for (const std::string& node : unknown)
                message += " " + node;
            throw ModelError(message);
        }
    }
    TTMCAS_REQUIRE(n_chips > 0.0 && std::isfinite(n_chips),
                   "number of final chips must be positive");

    const std::size_t count = spec.candidateCount();
    const TtmModel model(_db, _model_options);
    CasModel::Options cas_options;
    cas_options.derivative_rel_step = options.derivative_rel_step;
    cas_options.normalization = options.cas_normalization;
    cas_options.eval_path = options.eval_path;
    const CasModel cas_model(TtmModel(_db, _model_options), cas_options);
    const CostModel costs(_db, _cost_options);

    // One source (node, volume) of a candidate: TTM and CAS on the
    // fab design (spares included — they are fabricated and bonded),
    // cost on the base partitioning with spares as a cost-model knob.
    const auto evaluateSource = [&](const ChipletCandidate& candidate,
                                    const std::string& node,
                                    double volume) {
        CandidateValue value;
        const ChipDesign partitioned =
            partitionDesign(base, candidate.partitions, node);
        ChipDesign fab = partitioned;
        fab.dies[0].count_per_package +=
            static_cast<double>(candidate.spares);

        std::optional<CompiledDesign> compiled;
        if (options.eval_path == EvalPath::kBatch)
            compiled = CompiledDesign::tryCompile(fab, _db,
                                                  _model_options, market,
                                                  volume);

        double ttm = 0.0;
        if (!compiled.has_value() ||
            !compiled->ttmOne(kNominalFactors, &ttm)) {
            ttm = model.evaluate(fab, volume, market).total().value();
        }
        value.ttm = finiteOr(ttm, DiagCode::NonFiniteTtm,
                             "chiplet TTM of '" + fab.name + "'");

        double cas = 0.0;
        if (!compiled.has_value() ||
            !compiled->casOne(kNominalFactors,
                              options.derivative_rel_step,
                              options.cas_normalization, nullptr,
                              &cas)) {
            cas = cas_model.cas(fab, volume, market);
        }
        value.cas = finiteOr(cas, DiagCode::NonFiniteCas,
                             "chiplet CAS of '" + fab.name + "'");

        ChipletCostParams cost_params = spec.cost;
        cost_params.spare_chiplets = candidate.spares;
        value.cost = costs.evaluateChiplet(partitioned, volume,
                                           cost_params)
                         .total()
                         .value();
        return value;
    };

    const auto evaluateCandidate = [&](std::size_t k) {
        const ChipletCandidate candidate = candidateAt(spec, k);
        const double fraction = candidate.split_fraction;
        CandidateValue value =
            evaluateSource(candidate, candidate.node,
                           fraction * n_chips);
        if (fraction < 1.0) {
            // SplitPlanner semantics: slowest pipeline binds TTM, the
            // methodology pays both cost stacks, and Eq. 8 slope sums
            // add across the two pipelines (harmonic CAS).
            const CandidateValue secondary =
                evaluateSource(candidate, spec.secondary_node,
                               (1.0 - fraction) * n_chips);
            value.ttm = std::max(value.ttm, secondary.ttm);
            value.cas = finiteOr(1.0 / (1.0 / value.cas +
                                        1.0 / secondary.cas),
                                 DiagCode::NonFiniteCas,
                                 "chiplet split CAS");
            value.cost += secondary.cost;
        }
        return value;
    };

    PointKernel<CandidateValue> points;
    points.name = kChipletKernelName;
    points.seed = options.seed;
    points.count = count;
    points.point = evaluateCandidate;
    points.width = 3;
    points.save = [](const CandidateValue& value, double* slots) {
        slots[0] = value.ttm;
        slots[1] = value.cas;
        slots[2] = value.cost;
    };
    points.restore = [](std::size_t, const double* slots) {
        return CandidateValue{slots[0], slots[1], slots[2]};
    };
    const PointBatch<CandidateValue> candidates = runPoints(options, points);

    ChipletParetoResult result;
    result.candidates_requested = count;
    std::vector<std::vector<double>> scores;
    for (std::size_t k = 0; k < count; ++k) {
        if (!candidates.done(k))
            continue;
        const CandidateValue& value = candidates.values[k];
        ChipletPoint point;
        point.index = k;
        point.candidate = candidateAt(spec, k);
        point.ttm_weeks = value.ttm;
        point.cas = value.cas;
        point.cost = value.cost;
        result.points.push_back(std::move(point));
        scores.push_back({value.ttm, value.cas, value.cost});
    }
    result.candidates_completed = result.points.size();
    if (!scores.empty()) {
        result.frontier = paretoFront(
            scores, {Objective::Minimize, Objective::Maximize,
                     Objective::Minimize});
    }
    return result;
}

} // namespace ttmcas
