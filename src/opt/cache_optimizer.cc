#include "opt/cache_optimizer.hh"

#include <algorithm>
#include <cmath>

#include "core/ttm_model.hh"
#include "stats/batch_driver.hh"
#include "support/error.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace ttmcas {

CacheSweep::CacheSweep(TechnologyDb db, MissCurve instruction_curve,
                       MissCurve data_curve, IpcModel ipc_model,
                       ArianeChipSpec base)
    : _db(std::move(db)), _instruction_curve(std::move(instruction_curve)),
      _data_curve(std::move(data_curve)), _ipc_model(ipc_model), _base(base)
{
    TTMCAS_REQUIRE(!_db.empty(), "CacheSweep needs a technology db");
}

CacheDesignPoint
CacheSweep::evaluate(std::uint64_t icache_bytes, std::uint64_t dcache_bytes,
                     const CacheSweepOptions& options) const
{
    ArianeChipSpec spec = _base;
    spec.icache_bytes = icache_bytes;
    spec.dcache_bytes = dcache_bytes;

    TtmModel::Options model_options;
    model_options.tapeout_engineers = options.tapeout_engineers;
    const TtmModel ttm_model(_db, model_options);
    const CostModel cost_model(_db);

    const ChipDesign design = makeArianeChip(spec, options.process);

    CacheDesignPoint point;
    point.icache_bytes = icache_bytes;
    point.dcache_bytes = dcache_bytes;
    point.ipc = _ipc_model.ipcAt(_instruction_curve, _data_curve,
                                 icache_bytes, dcache_bytes);
    point.ttm = ttm_model.evaluate(design, options.n_chips).total();
    point.cost = cost_model.evaluate(design, options.n_chips).total();
    point.cache_area_fraction = spec.cores * spec.cacheTransistorsPerCore() /
                                spec.totalTransistors();
    return point;
}

std::vector<CacheDesignPoint>
CacheSweep::sweep(const CacheSweepOptions& options) const
{
    const obs::ScopedSpan span("sweep", "CacheSweep::sweep");
    static const obs::Counter points_evaluated("sweep.points");

    const std::vector<std::uint64_t> sizes =
        options.sizes_bytes.empty() ? MissCurveOptions::paperSizes()
                                    : options.sizes_bytes;

    // Point (i, j) lands in slot i * |sizes| + j, so the returned
    // order matches the serial nested-loop sweep exactly.
    const std::size_t count = sizes.size();
    const auto guard = [](double value, DiagCode code, const char* what) {
        if (!std::isfinite(value))
            finiteOr(value, code, what);
    };
    PointKernel<CacheDesignPoint> points;
    points.name = "CacheSweep::sweep";
    points.count = count * count;
    points.counter = &points_evaluated;
    points.point = [&](std::size_t flat) {
        const CacheDesignPoint point =
            evaluate(sizes[flat / count], sizes[flat % count], options);
        guard(point.ipc, DiagCode::NonFiniteOutput, "CacheSweep::sweep IPC");
        guard(point.ttm.value(), DiagCode::NonFiniteTtm,
              "CacheSweep::sweep TTM");
        guard(point.cost.value(), DiagCode::NonFiniteCost,
              "CacheSweep::sweep cost");
        return point;
    };
    points.width = 4;
    points.save = [](const CacheDesignPoint& point, double* slots) {
        slots[0] = point.ipc;
        slots[1] = point.ttm.value();
        slots[2] = point.cost.value();
        slots[3] = point.cache_area_fraction;
    };
    points.restore = [&](std::size_t flat, const double* slots) {
        CacheDesignPoint point;
        point.icache_bytes = sizes[flat / count];
        point.dcache_bytes = sizes[flat % count];
        point.ipc = slots[0];
        point.ttm = Weeks(slots[1]);
        point.cost = Dollars(slots[2]);
        point.cache_area_fraction = slots[3];
        return point;
    };
    return runPoints(options, points).survivors();
}

const CacheDesignPoint&
CacheSweep::bestByIpcPerTtm(const std::vector<CacheDesignPoint>& points)
{
    TTMCAS_REQUIRE(!points.empty(), "empty cache sweep");
    return *std::max_element(points.begin(), points.end(),
                             [](const CacheDesignPoint& a,
                                const CacheDesignPoint& b) {
                                 return a.ipcPerTtm() < b.ipcPerTtm();
                             });
}

const CacheDesignPoint&
CacheSweep::bestByIpcPerCost(const std::vector<CacheDesignPoint>& points)
{
    TTMCAS_REQUIRE(!points.empty(), "empty cache sweep");
    return *std::max_element(points.begin(), points.end(),
                             [](const CacheDesignPoint& a,
                                const CacheDesignPoint& b) {
                                 return a.ipcPerCost() < b.ipcPerCost();
                             });
}

} // namespace ttmcas
