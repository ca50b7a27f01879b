#include "core/cas.hh"

#include <optional>
#include <string>

#include "support/error.hh"
#include "support/outcome.hh"

namespace ttmcas {

namespace {

/** |dTTM/dmuW| of one node's fab time, (Q + W) / muW^2. */
double
nodeSlope(const NodeFabDetail& node)
{
    const double rate = node.effective_rate.value();
    return (node.queue_time.value() + node.wafers.value() / rate) / rate;
}

/** Nodes whose fab time ties for the maximum (the bottleneck set). */
std::size_t
bottleneckCount(const TtmResult& result)
{
    std::size_t count = 0;
    for (const NodeFabDetail& node : result.node_details)
        count += node.fabTime() == result.fab_time ? 1 : 0;
    return count;
}

/** Raw Eq. 8 score of @p design from its evaluation @p result. */
double
rawCasOf(const ChipDesign& design, const TtmResult& result)
{
    const double slope_sum = rateSlopeSum(result);
    finiteOr(slope_sum, DiagCode::NonFiniteCas,
             [&] { return "CAS slope sum of design '" + design.name + "'"; });
    TTMCAS_REQUIRE(slope_sum > 0.0,
                   "TTM of design '" + design.name +
                       "' is insensitive to every node's production rate; "
                       "CAS is unbounded");
    return 1.0 / slope_sum;
}

} // namespace

double
rateSlopeSum(const TtmResult& result)
{
    // Summed in node order, then halved at a tie: the op order of
    // CompiledDesign::fabPhase, so the kernels stay bitwise equal.
    double slope_sum = 0.0;
    for (const NodeFabDetail& node : result.node_details) {
        if (node.fabTime() == result.fab_time)
            slope_sum += nodeSlope(node);
    }
    return bottleneckCount(result) > 1 ? slope_sum * 0.5 : slope_sum;
}

CasModel::CasModel(TtmModel model) : CasModel(std::move(model), Options{}) {}

CasModel::CasModel(TtmModel model, Options options)
    : _model(std::move(model)), _options(options)
{
    TTMCAS_REQUIRE(_options.normalization > 0.0,
                   "CAS normalization must be positive");
}

double
CasModel::dTtmDMu(const ChipDesign& design, double n_chips,
                  const MarketConditions& market,
                  const std::string& process) const
{
    const TtmResult result = _model.evaluate(design, n_chips, market);
    const NodeFabDetail& node = result.nodeDetail(process);
    if (!(node.fabTime() == result.fab_time))
        return 0.0;
    const double slope = nodeSlope(node);
    return -(bottleneckCount(result) > 1 ? slope * 0.5 : slope);
}

double
CasModel::rawCas(const ChipDesign& design, double n_chips,
                 const MarketConditions& market) const
{
    return rawCasOf(design, _model.evaluate(design, n_chips, market));
}

double
CasModel::cas(const ChipDesign& design, double n_chips,
              const MarketConditions& market) const
{
    return rawCas(design, n_chips, market) / _options.normalization;
}

std::vector<CasPoint>
CasModel::capacitySweep(const ChipDesign& design, double n_chips,
                        const std::vector<double>& fractions,
                        const MarketConditions& base) const
{
    BatchControl control;
    control.parallel = ParallelConfig::serial();
    return sweepPoints(design, n_chips, fractions, base, control).values;
}

PointBatch<CasPoint>
CasModel::sweepPoints(const ChipDesign& design, double n_chips,
                      const std::vector<double>& fractions,
                      const MarketConditions& base,
                      const BatchControl& control) const
{
    for (double fraction : fractions) {
        TTMCAS_REQUIRE(fraction > 0.0,
                       "capacity fraction must be positive");
    }
    // The sweep re-evaluates the same design at every fraction, so the
    // compiled kernel's one-time precompute amortizes across the whole
    // sweep: only the fab phase depends on the capacity factors.
    std::optional<CompiledDesign> compiled;
    if (_options.eval_path == EvalPath::kBatch)
        compiled = CompiledDesign::tryCompile(design, _model.technology(),
                                              _model.options(), base,
                                              n_chips);

    PointKernel<CasPoint> points;
    points.name = "capacity_sweep";
    points.count = fractions.size();
    points.width = 2;
    points.point = [&](std::size_t i) {
        MarketConditions market = base;
        for (const std::string& process : design.processNodes())
            market.setCapacityFactor(process, fractions[i]);
        const TtmResult result = _model.evaluate(design, n_chips, market);
        CasPoint point;
        point.capacity_fraction = fractions[i];
        point.ttm = result.total();
        point.cas = rawCasOf(design, result) / _options.normalization;
        return point;
    };
    if (compiled.has_value()) {
        points.chunk = [&](std::size_t b, std::size_t e, CasPoint* out,
                           unsigned char* ok) {
            thread_local std::vector<double> ttm;
            thread_local std::vector<double> cas_values;
            ttm.resize(e - b);
            cas_values.resize(e - b);
            compiled->sweepBatch(fractions.data() + b, e - b,
                                 _options.normalization, ttm.data(),
                                 cas_values.data(), ok);
            for (std::size_t j = 0; j < e - b; ++j)
                out[j] = CasPoint{fractions[b + j], Weeks(ttm[j]),
                                  cas_values[j]};
        };
    }
    points.save = [](const CasPoint& point, double* slots) {
        slots[0] = point.ttm.value();
        slots[1] = point.cas;
    };
    points.restore = [&](std::size_t i, const double* slots) {
        return CasPoint{fractions[i], Weeks(slots[0]), slots[1]};
    };
    return runPoints(control, points);
}

} // namespace ttmcas
