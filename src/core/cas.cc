#include "core/cas.hh"

#include <cmath>
#include <optional>
#include <string>

#include "support/error.hh"
#include "support/mathutil.hh"
#include "support/outcome.hh"

namespace ttmcas {

CasModel::CasModel(TtmModel model) : CasModel(std::move(model), Options{}) {}

CasModel::CasModel(TtmModel model, Options options)
    : _model(std::move(model)), _options(options)
{
    TTMCAS_REQUIRE(_options.derivative_rel_step > 0.0,
                   "derivative step must be positive");
    TTMCAS_REQUIRE(_options.normalization > 0.0,
                   "CAS normalization must be positive");
}

double
CasModel::dTtmDMu(const ChipDesign& design, double n_chips,
                  const MarketConditions& market,
                  const std::string& process) const
{
    const ProcessNode& node = _model.technology().node(process);
    const WafersPerWeek max_rate = node.waferRate();
    TTMCAS_REQUIRE(max_rate.value() > 0.0,
                   "node '" + process + "' has no production to perturb");
    const double current_rate =
        market.effectiveWaferRate(node).value();
    TTMCAS_REQUIRE(current_rate > 0.0,
                   "node '" + process +
                       "' has zero effective rate under this market");

    // TTM as a function of this node's effective wafer rate: express the
    // rate as a capacity factor so every other market setting persists.
    const auto ttm_of_rate = [&](double rate) {
        MarketConditions perturbed = market;
        perturbed.setCapacityFactor(process, rate / max_rate.value());
        return _model.evaluate(design, n_chips, perturbed).total().value();
    };
    return centralDifference(ttm_of_rate, current_rate,
                             _options.derivative_rel_step);
}

double
CasModel::rawCas(const ChipDesign& design, double n_chips,
                 const MarketConditions& market) const
{
    double slope_sum = 0.0;
    for (const std::string& process : design.processNodes())
        slope_sum += std::fabs(dTtmDMu(design, n_chips, market, process));
    finiteOr(slope_sum, DiagCode::NonFiniteCas,
             [&] { return "CAS slope sum of design '" + design.name + "'"; });
    TTMCAS_REQUIRE(slope_sum > 0.0,
                   "TTM of design '" + design.name +
                       "' is insensitive to every node's production rate; "
                       "CAS is unbounded");
    return 1.0 / slope_sum;
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
        CasPoint point;
        point.capacity_fraction = fractions[i];
        point.ttm = _model.evaluate(design, n_chips, market).total();
        point.cas = cas(design, n_chips, market);
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
                                 _options.derivative_rel_step,
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
