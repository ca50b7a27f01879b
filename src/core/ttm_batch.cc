#include "core/ttm_batch.hh"

#include <chrono>
#include <cmath>
#include <numbers>

#include "core/yield.hh"
#include "support/metrics.hh"
#include "support/units.hh"

// This translation unit is compiled with -ffp-contract=off (see
// src/core/CMakeLists.txt): the scalar model TUs never emit fused
// multiply-adds, so the kernels must not either or the bitwise
// identity bar breaks on FMA-capable targets.

namespace ttmcas {

namespace {

constexpr double kTestingEffortScale = 1e15;  // as in ttm_model.cc
constexpr double kPackagingEffortScale = 1e9; // as in ttm_model.cc

/** Shared handle to the same counter TtmModel::evaluate bumps. */
const obs::Counter&
evaluationsCounter()
{
    static const obs::Counter counter("ttm.evaluations");
    return counter;
}

/** Batch sizes the kernels are called with (power-of-4-ish ladder). */
const obs::Histogram&
batchSizeHistogram()
{
    static const obs::Histogram histogram(
        "ttm.batch.size",
        {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0});
    return histogram;
}

/** Per-sample kernel cost in nanoseconds (batch calls only). */
const obs::Histogram&
nsPerSampleHistogram()
{
    static const obs::Histogram histogram(
        "ttm.batch.ns_per_sample",
        {25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
         10000.0, 25000.0, 100000.0});
    return histogram;
}

/** Record one timed batch call of @p n lanes into ttm.batch.*. */
void
recordBatch(std::size_t n, std::chrono::steady_clock::duration elapsed)
{
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
        static_cast<double>(n);
    batchSizeHistogram().record(static_cast<double>(n));
    nsPerSampleHistogram().record(ns);
}

/** Factor column indices, matching uncertainty.hh's UncertainInput. */
enum : std::size_t
{
    kNtt = 0,   // total transistors
    kNut = 1,   // unique transistors
    kD0 = 2,    // defect density
    kMuW = 3,   // wafer rate
    kLfab = 4,  // foundry latency
    kLosat = 5, // OSAT latency
};

} // namespace

/**
 * Reusable SoA evaluation scratch. One instance lives per thread (see
 * workspace() below), so after the first call at a given batch size
 * the kernels allocate nothing.
 */
struct CompiledDesign::Workspace
{
    // Per-die scratch, reused across dies (length n).
    std::vector<double> t;    ///< scaled total transistors
    std::vector<double> u;    ///< scaled+clamped unique transistors
    std::vector<double> area; ///< effective die area, mm^2
    std::vector<double> yld;  ///< die yield
    // Per-process accumulators (length P*n, process-major).
    std::vector<double> sum_u;  ///< unique transistors per process
    std::vector<double> wafers; ///< wafer demand per process
    // Per-sample phase results (length n).
    std::vector<double> tapeout; ///< tapeout calendar weeks
    std::vector<double> lat;     ///< packaging latency weeks
    std::vector<double> test;    ///< testing weeks
    std::vector<double> assy;    ///< assembly weeks
    std::vector<double> pack;    ///< total packaging weeks
    std::vector<double> worst;   ///< running max fab time (fabPhase)
    std::vector<unsigned char> ok;
    // casOne scratch: per-process capacity factors (length P).
    std::vector<double> caps;
    // casBatch scratch (length n each).
    std::vector<double> cap_plus;  ///< per-lane perturbed-up factor
    std::vector<double> cap_minus; ///< per-lane perturbed-down factor
    std::vector<double> hstep;     ///< per-lane central-difference step
    std::vector<double> slope;     ///< per-lane running |dTTM/dmuW| sum
    std::vector<double> ttm_a;     ///< perturbed-up totals
    std::vector<double> ttm_b;     ///< perturbed-down totals
    std::vector<unsigned char> ok2;

    void
    resize(std::size_t n, std::size_t processes)
    {
        t.resize(n);
        u.resize(n);
        area.resize(n);
        yld.resize(n);
        sum_u.assign(processes * n, 0.0);
        wafers.assign(processes * n, 0.0);
        tapeout.assign(n, 0.0);
        lat.assign(n, 0.0);
        test.assign(n, 0.0);
        assy.assign(n, 0.0);
        pack.resize(n);
        worst.resize(n);
        ok.resize(n);
        caps.resize(processes);
        cap_plus.resize(n);
        cap_minus.resize(n);
        hstep.resize(n);
        slope.resize(n);
        ttm_a.resize(n);
        ttm_b.resize(n);
        ok2.resize(n);
    }
};

CompiledDesign::Workspace&
CompiledDesign::workspace()
{
    thread_local Workspace ws;
    return ws;
}

std::optional<CompiledDesign>
CompiledDesign::tryCompile(const ChipDesign& design, const TechnologyDb& db,
                           const TtmModel::Options& model_options,
                           const MarketConditions& market, double n_chips)
{
    // Static preconditions. Anything the scalar path rejects (or could
    // reject) independently of the per-sample factors must hold here;
    // otherwise the caller keeps the scalar path, which raises the
    // exact legacy diagnostics.
    if (db.empty() || model_options.yield == nullptr)
        return std::nullopt;
    if (!(model_options.tapeout_engineers > 0.0))
        return std::nullopt;
    if (!(n_chips > 0.0) || !std::isfinite(n_chips))
        return std::nullopt;
    if (!design.violationsAgainst(db).empty())
        return std::nullopt;

    // The inlined Eq. 6 assumes the negative-binomial model. A design
    // whose every die pins its yield never consults the model; any
    // other yield model forces the scalar path.
    const auto* nb = dynamic_cast<const NegativeBinomialYield*>(
        model_options.yield.get());
    bool needs_yield_model = false;
    for (const auto& die : design.dies) {
        if (!die.yield_override.has_value())
            needs_yield_model = true;
    }
    if (needs_yield_model && nb == nullptr)
        return std::nullopt;

    CompiledDesign compiled;
    compiled._n_chips = n_chips;
    compiled._design_time = design.design_time.value();
    compiled._engineer_hours_per_week =
        model_options.tapeout_engineers * units::hours_per_work_week;
    if (nb != nullptr) {
        compiled._nb_alpha = nb->alpha();
        compiled._nb_neg_alpha = -compiled._nb_alpha;
    }

    // Wafer geometry constants. Each is a value grossDiesPerWafer also
    // derives as a single expression from the same inputs, so baking
    // them preserves bitwise identity.
    const WaferGeometry& wafer = model_options.wafer;
    compiled._scribe_mm = wafer.options().scribe_mm;
    compiled._reticle_limit_mm2 = wafer.options().reticle_limit_mm2;
    const double usable_diameter =
        wafer.diameterMm() - 2.0 * wafer.options().edge_exclusion_mm;
    const double usable_radius = usable_diameter / 2.0;
    compiled._usable_area =
        std::numbers::pi * usable_radius * usable_radius;
    compiled._pi_usable_diameter = std::numbers::pi * usable_diameter;

    for (const std::string& process : design.processNodes()) {
        const ProcessNode& node = db.node(process);
        CompiledNode cn;
        cn.name = process;
        cn.tapeout_effort = node.tapeout_effort_hours_per_transistor;
        cn.testing_effort = node.testing_effort_weeks_per_e15;
        cn.packaging_effort = node.packaging_effort_weeks_per_e9_mm2;
        cn.d0 = node.defect_density_per_mm2;
        cn.kwpm = node.wafer_rate_kwpm;
        cn.lfab = node.foundry_latency.value();
        cn.losat = node.osat_latency.value();
        cn.capacity_factor = market.capacityFactor(process);
        const double queue_weeks = market.queueWeeks(process).value();
        // A negatively-signed or non-finite backlog would make the
        // baked queue-wafer reconstruction diverge from
        // MarketConditions::queueWafers in ±0.0 / NaN corner cases.
        if (!std::isfinite(queue_weeks) || std::signbit(queue_weeks))
            return std::nullopt;
        cn.queue_weeks = queue_weeks;
        // Probe for an additive wafer backlog: with the rate zeroed,
        // queueWafers returns exactly the additive term (or ±0.0).
        ProcessNode probe = node;
        probe.wafer_rate_kwpm = 0.0;
        const double extra = market.queueWafers(probe).value();
        if (extra != 0.0) {
            cn.has_queue_extra = true;
            cn.queue_extra_wafers = extra;
        }
        compiled._nodes.push_back(std::move(cn));
    }

    for (const auto& die : design.dies) {
        const ProcessNode& node = db.node(die.process);
        CompiledDie cd;
        cd.total_transistors = die.total_transistors;
        cd.unique_transistors = die.unique_transistors;
        cd.dies_needed = n_chips * die.count_per_package;
        cd.min_area = die.min_area.value();
        if (die.area_override.has_value()) {
            cd.has_area_override = true;
            cd.area_override = die.area_override->value();
        }
        if (die.yield_override.has_value()) {
            cd.has_yield_override = true;
            cd.yield_override = *die.yield_override;
        }
        cd.density_denom = node.density_mtr_per_mm2 * 1e6;
        cd.node = static_cast<std::uint32_t>(
            compiled.processIndex(die.process));
        compiled._dies.push_back(cd);
    }

    // scaledTechnology() scales and re-validates every node in the db,
    // not only the ones this design uses, so overflow anywhere in the
    // db must push a sample to the scalar path. Overflow is monotone
    // in magnitude and every base is finite and >= 0, so checking the
    // per-field maxima covers all nodes.
    for (const ProcessNode& node : db.nodes()) {
        compiled._max_db_d0 =
            std::max(compiled._max_db_d0, node.defect_density_per_mm2);
        compiled._max_db_kwpm =
            std::max(compiled._max_db_kwpm, node.wafer_rate_kwpm);
        compiled._max_db_lfab =
            std::max(compiled._max_db_lfab, node.foundry_latency.value());
        compiled._max_db_losat =
            std::max(compiled._max_db_losat, node.osat_latency.value());
    }

    return compiled;
}

int
CompiledDesign::processIndex(const std::string& process) const
{
    for (std::size_t p = 0; p < _nodes.size(); ++p) {
        if (_nodes[p].name == process)
            return static_cast<int>(p);
    }
    return -1;
}

void
CompiledDesign::diePhase(const std::array<const double*, 6>& factors,
                         std::size_t n, Workspace& ws) const
{
    const double* f_ntt = factors[kNtt];
    const double* f_nut = factors[kNut];
    const double* f_d0 = factors[kD0];
    const double* f_mu = factors[kMuW];
    const double* f_lfab = factors[kLfab];
    const double* f_losat = factors[kLosat];

    ws.resize(n, _nodes.size());

    // Factor predicates: scaleDesign requires positive transistor
    // factors, scaledTechnology requires non-negative node factors and
    // re-validates every scaled node (finiteness via the db maxima).
    for (std::size_t i = 0; i < n; ++i) {
        const bool ok =
            f_ntt[i] > 0.0 && f_nut[i] > 0.0 && f_d0[i] >= 0.0 &&
            f_mu[i] >= 0.0 && f_lfab[i] >= 0.0 && f_losat[i] >= 0.0 &&
            std::isfinite(_max_db_d0 * f_d0[i]) &&
            std::isfinite(_max_db_kwpm * f_mu[i]) &&
            std::isfinite(_max_db_lfab * f_lfab[i]) &&
            std::isfinite(_max_db_losat * f_losat[i]);
        ws.ok[i] = ok ? 1 : 0;
    }

    for (const CompiledDie& die : _dies) {
        const CompiledNode& node = _nodes[die.node];
        double* sum_u = ws.sum_u.data() + die.node * n;
        double* wafers = ws.wafers.data() + die.node * n;

        // Scaled transistor counts; unique clamps to total exactly as
        // scaleDesign does. Non-finite or underflowed-to-zero counts
        // are die validation failures on the scalar path.
        for (std::size_t i = 0; i < n; ++i) {
            const double t = die.total_transistors * f_ntt[i];
            double u = die.unique_transistors * f_nut[i];
            if (u > t)
                u = t;
            ws.t[i] = t;
            ws.u[i] = u;
        }
        for (std::size_t i = 0; i < n; ++i) {
            ws.ok[i] &= static_cast<unsigned char>(
                std::isfinite(ws.t[i]) && ws.t[i] > 0.0 &&
                std::isfinite(ws.u[i]));
        }

        // Effective area: pinned (scaled by the N_TT factor) or
        // density-derived, then the min-area clamp of Die::areaAt.
        if (die.has_area_override) {
            for (std::size_t i = 0; i < n; ++i) {
                const double pinned = die.area_override * f_ntt[i];
                ws.ok[i] &= static_cast<unsigned char>(
                    std::isfinite(pinned) && pinned > 0.0);
                ws.area[i] = pinned < die.min_area ? die.min_area : pinned;
            }
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                const double derived = ws.t[i] / die.density_denom;
                ws.area[i] =
                    derived < die.min_area ? die.min_area : derived;
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            ws.ok[i] &= static_cast<unsigned char>(ws.area[i] > 0.0);

        for (std::size_t i = 0; i < n; ++i)
            sum_u[i] += ws.u[i];

        // Eq. 6 negative-binomial yield (or the pinned override).
        if (die.has_yield_override) {
            for (std::size_t i = 0; i < n; ++i)
                ws.yld[i] = die.yield_override;
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                const double defects = ws.area[i] * (node.d0 * f_d0[i]);
                const double y = std::pow(1.0 + defects / _nb_alpha,
                                          _nb_neg_alpha);
                ws.yld[i] = y;
                ws.ok[i] &=
                    static_cast<unsigned char>(std::isfinite(y));
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            ws.ok[i] &= static_cast<unsigned char>(ws.yld[i] > 0.0 &&
                                                   ws.yld[i] <= 1.0);
        }

        // Gross dies per wafer (partial-edge correction) and the wafer
        // demand for this die. A die that does not fit (zero good dies
        // per wafer) is a scalar-path throw, so the lane dies instead.
        for (std::size_t i = 0; i < n; ++i) {
            const double a = ws.area[i];
            double gross;
            if (_reticle_limit_mm2 > 0.0 && a > _reticle_limit_mm2) {
                gross = 0.0;
            } else {
                const double side = std::sqrt(a);
                const double effective_side = side + _scribe_mm;
                const double packed = effective_side * effective_side;
                const double raw =
                    _usable_area / packed -
                    _pi_usable_diameter / std::sqrt(2.0 * packed);
                gross = raw <= 0.0 ? 0.0 : std::floor(raw);
            }
            const double per_wafer = gross * ws.yld[i];
            ws.ok[i] &= static_cast<unsigned char>(per_wafer > 0.0);
            wafers[i] += die.dies_needed / per_wafer;
        }

        // Packaging phase contributions (Eq. 7), accumulated per die
        // in die order exactly as the scalar loop does.
        for (std::size_t i = 0; i < n; ++i) {
            const double losat = node.losat * f_losat[i];
            ws.lat[i] = ws.lat[i] < losat ? losat : ws.lat[i];
        }
        for (std::size_t i = 0; i < n; ++i) {
            const double dies_tested = die.dies_needed / ws.yld[i];
            ws.test[i] += ((dies_tested * ws.t[i]) * node.testing_effort) /
                          kTestingEffortScale;
        }
        for (std::size_t i = 0; i < n; ++i) {
            ws.assy[i] +=
                ((die.dies_needed * ws.area[i]) * node.packaging_effort) /
                kPackagingEffortScale;
        }
    }

    // Tapeout phase (Eq. 2): per-process unique-transistor sums times
    // the node effort, converted to calendar weeks.
    for (std::size_t p = 0; p < _nodes.size(); ++p) {
        const double effort = _nodes[p].tapeout_effort;
        const double* sum_u = ws.sum_u.data() + p * n;
        for (std::size_t i = 0; i < n; ++i)
            ws.tapeout[i] += sum_u[i] * effort;
    }
    for (std::size_t i = 0; i < n; ++i)
        ws.tapeout[i] = ws.tapeout[i] / _engineer_hours_per_week;

    for (std::size_t i = 0; i < n; ++i)
        ws.pack[i] = (ws.lat[i] + ws.test[i]) + ws.assy[i];
}

void
CompiledDesign::fabPhase(const std::array<const double*, 6>& factors,
                         std::size_t n, Workspace& ws,
                         const double* capacity_factors, double* out,
                         unsigned char* ok) const
{
    const double* f_mu = factors[kMuW];
    const double* f_lfab = factors[kLfab];

    for (std::size_t i = 0; i < n; ++i)
        ok[i] = ws.ok[i];

    // Eq. 3/4/5 per node: effective rate, queue drain, production
    // time; the fab phase is the max over nodes with the scalar
    // first-wins tie-breaking (p == 0 seeds, strictly-greater wins).
    double* worst = ws.worst.data();
    for (std::size_t p = 0; p < _nodes.size(); ++p) {
        const CompiledNode& node = _nodes[p];
        const double cap = capacity_factors != nullptr
                               ? capacity_factors[p]
                               : node.capacity_factor;
        const double* wafers = ws.wafers.data() + p * n;
        for (std::size_t i = 0; i < n; ++i) {
            const double max_rate =
                ((node.kwpm * f_mu[i]) * 1000.0) / units::weeks_per_month;
            const double rate = max_rate * cap;
            ok[i] &= static_cast<unsigned char>(rate > 0.0);
            double queue_wafers = node.queue_weeks * max_rate;
            if (node.has_queue_extra)
                queue_wafers += node.queue_extra_wafers;
            const double queue_time = queue_wafers / rate;
            const double production_time =
                (wafers[i] / rate) + node.lfab * f_lfab[i];
            const double fab = queue_time + production_time;
            if (p == 0)
                worst[i] = fab;
            else
                worst[i] = fab > worst[i] ? fab : worst[i];
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const double total =
            ((_design_time + ws.tapeout[i]) + worst[i]) + ws.pack[i];
        ok[i] &= static_cast<unsigned char>(std::isfinite(total));
        out[i] = total;
    }
}

void
CompiledDesign::fabPhaseVarying(const std::array<const double*, 6>& factors,
                                std::size_t n, Workspace& ws,
                                std::size_t varying_process,
                                const double* varying_caps, double* out,
                                unsigned char* ok) const
{
    const double* f_mu = factors[kMuW];
    const double* f_lfab = factors[kLfab];

    for (std::size_t i = 0; i < n; ++i)
        ok[i] = ws.ok[i];

    // Identical to fabPhase except that one node's capacity factor is
    // a per-lane column; the per-lane op chain is unchanged (the
    // factor's *origin* cannot affect bit patterns).
    double* worst = ws.worst.data();
    for (std::size_t p = 0; p < _nodes.size(); ++p) {
        const CompiledNode& node = _nodes[p];
        const bool varying = p == varying_process;
        const double cap_fixed = ws.caps[p];
        const double* wafers = ws.wafers.data() + p * n;
        for (std::size_t i = 0; i < n; ++i) {
            const double cap = varying ? varying_caps[i] : cap_fixed;
            const double max_rate =
                ((node.kwpm * f_mu[i]) * 1000.0) / units::weeks_per_month;
            const double rate = max_rate * cap;
            ok[i] &= static_cast<unsigned char>(rate > 0.0);
            double queue_wafers = node.queue_weeks * max_rate;
            if (node.has_queue_extra)
                queue_wafers += node.queue_extra_wafers;
            const double queue_time = queue_wafers / rate;
            const double production_time =
                (wafers[i] / rate) + node.lfab * f_lfab[i];
            const double fab = queue_time + production_time;
            if (p == 0)
                worst[i] = fab;
            else
                worst[i] = fab > worst[i] ? fab : worst[i];
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        const double total =
            ((_design_time + ws.tapeout[i]) + worst[i]) + ws.pack[i];
        ok[i] &= static_cast<unsigned char>(std::isfinite(total));
        out[i] = total;
    }
}

void
CompiledDesign::ttmBatch(const std::array<const double*, 6>& factors,
                         std::size_t n, double* out,
                         unsigned char* ok) const
{
    if (n == 0)
        return;
    const bool timed = obs::metricsEnabled();
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

    Workspace& ws = workspace();
    diePhase(factors, n, ws);
    fabPhase(factors, n, ws, nullptr, out, ok);

    std::uint64_t n_ok = 0;
    for (std::size_t i = 0; i < n; ++i)
        n_ok += ok[i];
    evaluationsCounter().add(n_ok);

    if (timed)
        recordBatch(n, std::chrono::steady_clock::now() - start);
}

bool
CompiledDesign::ttmOne(const Factors& factors, double* out) const
{
    const std::array<const double*, 6> columns{
        &factors[0], &factors[1], &factors[2],
        &factors[3], &factors[4], &factors[5]};
    unsigned char ok = 0;
    ttmBatch(columns, 1, out, &ok);
    return ok != 0;
}

bool
CompiledDesign::ttmOneAt(const Factors& factors,
                         const double* capacity_factors, double* out) const
{
    const std::array<const double*, 6> columns{
        &factors[0], &factors[1], &factors[2],
        &factors[3], &factors[4], &factors[5]};
    Workspace& ws = workspace();
    diePhase(columns, 1, ws);
    unsigned char ok = 0;
    fabPhase(columns, 1, ws, capacity_factors, out, &ok);
    if (ok != 0)
        evaluationsCounter().increment();
    return ok != 0;
}

bool
CompiledDesign::casOne(const Factors& factors, double derivative_rel_step,
                       double normalization,
                       const double* capacity_factors, double* out) const
{
    const std::array<const double*, 6> columns{
        &factors[0], &factors[1], &factors[2],
        &factors[3], &factors[4], &factors[5]};
    Workspace& ws = workspace();
    diePhase(columns, 1, ws);
    if (ws.ok[0] == 0)
        return false;

    // The die phase does not depend on capacity factors, so only the
    // fab phase re-runs per perturbation — each perturbed total is
    // still bitwise equal to a full scalar evaluate.
    const std::size_t processes = _nodes.size();
    for (std::size_t p = 0; p < processes; ++p) {
        ws.caps[p] = capacity_factors != nullptr
                         ? capacity_factors[p]
                         : _nodes[p].capacity_factor;
    }

    const double f_mu = factors[kMuW];
    double slope_sum = 0.0;
    std::uint64_t evaluations = 0;
    for (std::size_t p = 0; p < processes; ++p) {
        // dTtmDMu preconditions: a perturbable max rate and a positive
        // current effective rate.
        const double max_rate =
            ((_nodes[p].kwpm * f_mu) * 1000.0) / units::weeks_per_month;
        if (!(max_rate > 0.0))
            return false;
        const double current_rate = max_rate * ws.caps[p];
        if (!(current_rate > 0.0))
            return false;

        // centralDifference step and the two perturbed evaluations,
        // expressed as capacity factors exactly as CasModel does.
        const double h =
            std::max(std::fabs(current_rate), 1.0) * derivative_rel_step;
        const double factor_plus = (current_rate + h) / max_rate;
        const double factor_minus = (current_rate - h) / max_rate;
        // setCapacityFactor rejects negative (or NaN) factors.
        if (!(factor_plus >= 0.0) || !(factor_minus >= 0.0))
            return false;

        const double saved = ws.caps[p];
        double ttm_plus = 0.0;
        double ttm_minus = 0.0;
        unsigned char ok = 0;
        ws.caps[p] = factor_plus;
        fabPhase(columns, 1, ws, ws.caps.data(), &ttm_plus, &ok);
        if (ok == 0)
            return false;
        ++evaluations;
        ws.caps[p] = factor_minus;
        fabPhase(columns, 1, ws, ws.caps.data(), &ttm_minus, &ok);
        if (ok == 0)
            return false;
        ++evaluations;
        ws.caps[p] = saved;

        const double derivative = (ttm_plus - ttm_minus) / (2.0 * h);
        slope_sum += std::fabs(derivative);
    }

    if (!std::isfinite(slope_sum) || !(slope_sum > 0.0))
        return false;
    *out = (1.0 / slope_sum) / normalization;
    evaluationsCounter().add(evaluations);
    return true;
}

void
CompiledDesign::casBatch(const std::array<const double*, 6>& factors,
                         std::size_t n, double derivative_rel_step,
                         double normalization,
                         const double* capacity_factors, double* out,
                         unsigned char* ok) const
{
    if (n == 0)
        return;
    Workspace& ws = workspace();
    diePhase(factors, n, ws);

    const std::size_t processes = _nodes.size();
    for (std::size_t p = 0; p < processes; ++p) {
        ws.caps[p] = capacity_factors != nullptr
                         ? capacity_factors[p]
                         : _nodes[p].capacity_factor;
    }

    const double* f_mu = factors[kMuW];
    for (std::size_t i = 0; i < n; ++i)
        ws.slope[i] = 0.0;

    for (std::size_t p = 0; p < processes; ++p) {
        const CompiledNode& node = _nodes[p];
        const double cap = ws.caps[p];

        // Per-lane step and perturbed factors, with casOne's exact
        // predicates: a perturbable max rate, a positive current rate,
        // and non-negative perturbed capacity factors. A lane that
        // fails any of them is cleared; its column values are garbage
        // the varying fab phase tolerates (it re-checks rate > 0).
        for (std::size_t i = 0; i < n; ++i) {
            const double max_rate =
                ((node.kwpm * f_mu[i]) * 1000.0) / units::weeks_per_month;
            const double current_rate = max_rate * cap;
            const double h = std::max(std::fabs(current_rate), 1.0) *
                             derivative_rel_step;
            const double factor_plus = (current_rate + h) / max_rate;
            const double factor_minus = (current_rate - h) / max_rate;
            ws.hstep[i] = h;
            ws.cap_plus[i] = factor_plus;
            ws.cap_minus[i] = factor_minus;
            ws.ok[i] &= static_cast<unsigned char>(
                max_rate > 0.0 && current_rate > 0.0 &&
                factor_plus >= 0.0 && factor_minus >= 0.0);
        }

        fabPhaseVarying(factors, n, ws, p, ws.cap_plus.data(),
                        ws.ttm_a.data(), ws.ok2.data());
        for (std::size_t i = 0; i < n; ++i)
            ws.ok[i] &= ws.ok2[i];
        fabPhaseVarying(factors, n, ws, p, ws.cap_minus.data(),
                        ws.ttm_b.data(), ws.ok2.data());
        for (std::size_t i = 0; i < n; ++i)
            ws.ok[i] &= ws.ok2[i];

        for (std::size_t i = 0; i < n; ++i) {
            const double derivative =
                (ws.ttm_a[i] - ws.ttm_b[i]) / (2.0 * ws.hstep[i]);
            ws.slope[i] += std::fabs(derivative);
        }
    }

    std::uint64_t evaluations = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double slope_sum = ws.slope[i];
        unsigned char lane = ws.ok[i];
        lane &= static_cast<unsigned char>(std::isfinite(slope_sum) &&
                                           slope_sum > 0.0);
        out[i] = (1.0 / slope_sum) / normalization;
        ok[i] = lane;
        if (lane != 0)
            evaluations += 2 * static_cast<std::uint64_t>(processes);
    }
    evaluationsCounter().add(evaluations);
}

void
CompiledDesign::waferDemandBatch(int process_index,
                                 const double* ntt_factors,
                                 const double* d0_factors, std::size_t n,
                                 double* out, unsigned char* ok) const
{
    if (n == 0)
        return;
    const bool timed = obs::metricsEnabled();
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    Workspace& ws = workspace();
    ws.resize(n, _nodes.size());

    // sampleWaferDemand's scalar chain: scaleDesign(ntt, 1.0) then
    // scaledTechnology(d0, 1, 1, 1); only those two predicates (plus
    // db-wide D0 finiteness) gate a lane up front.
    for (std::size_t i = 0; i < n; ++i) {
        const bool lane_ok = ntt_factors[i] > 0.0 &&
                             d0_factors[i] >= 0.0 &&
                             std::isfinite(_max_db_d0 * d0_factors[i]);
        ws.ok[i] = lane_ok ? 1 : 0;
        out[i] = 0.0;
    }

    for (const CompiledDie& die : _dies) {
        if (process_index < 0 ||
            die.node != static_cast<std::uint32_t>(process_index))
            continue;
        const CompiledNode& node = _nodes[die.node];

        // waferDemand performs no design validation: areaAt and the
        // wafer/yield REQUIREs are the only per-sample throws.
        if (die.has_area_override) {
            for (std::size_t i = 0; i < n; ++i) {
                const double pinned = die.area_override * ntt_factors[i];
                ws.area[i] = pinned < die.min_area ? die.min_area : pinned;
            }
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                const double t = die.total_transistors * ntt_factors[i];
                const double derived = t / die.density_denom;
                ws.area[i] =
                    derived < die.min_area ? die.min_area : derived;
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            ws.ok[i] &= static_cast<unsigned char>(ws.area[i] > 0.0);

        if (die.has_yield_override) {
            for (std::size_t i = 0; i < n; ++i)
                ws.yld[i] = die.yield_override;
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                const double defects =
                    ws.area[i] * (node.d0 * d0_factors[i]);
                const double y = std::pow(1.0 + defects / _nb_alpha,
                                          _nb_neg_alpha);
                ws.yld[i] = y;
                ws.ok[i] &=
                    static_cast<unsigned char>(std::isfinite(y));
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            ws.ok[i] &= static_cast<unsigned char>(ws.yld[i] > 0.0 &&
                                                   ws.yld[i] <= 1.0);
        }

        for (std::size_t i = 0; i < n; ++i) {
            const double a = ws.area[i];
            double gross;
            if (_reticle_limit_mm2 > 0.0 && a > _reticle_limit_mm2) {
                gross = 0.0;
            } else {
                const double side = std::sqrt(a);
                const double effective_side = side + _scribe_mm;
                const double packed = effective_side * effective_side;
                const double raw =
                    _usable_area / packed -
                    _pi_usable_diameter / std::sqrt(2.0 * packed);
                gross = raw <= 0.0 ? 0.0 : std::floor(raw);
            }
            const double per_wafer = gross * ws.yld[i];
            ws.ok[i] &= static_cast<unsigned char>(per_wafer > 0.0);
            out[i] += die.dies_needed / per_wafer;
        }
    }

    for (std::size_t i = 0; i < n; ++i)
        ok[i] = ws.ok[i];
    if (timed)
        recordBatch(n, std::chrono::steady_clock::now() - start);
}

bool
CompiledDesign::waferDemandOne(int process_index, double ntt_factor,
                               double d0_factor, double* out) const
{
    unsigned char ok = 0;
    waferDemandBatch(process_index, &ntt_factor, &d0_factor, 1, out, &ok);
    return ok != 0;
}

} // namespace ttmcas
