#ifndef TTMCAS_OPT_CACHE_OPTIMIZER_HH
#define TTMCAS_OPT_CACHE_OPTIMIZER_HH

/**
 * @file
 * The cache-sizing design-space exploration of Section 6.1
 * (Figs. 4-6): sweep (I$, D$) capacities for the 16-core Ariane chip,
 * score each point by IPC, time-to-market, and chip-creation cost, and
 * locate the IPC/TTM- and IPC/cost-optimal configurations.
 */

#include <cstdint>
#include <vector>

#include "econ/cost_model.hh"
#include "sim/ariane.hh"
#include "sim/ipc_model.hh"
#include "sim/miss_curves.hh"
#include "support/batch_control.hh"
#include "support/units.hh"
#include "tech/technology_db.hh"

namespace ttmcas {

/** One (I$, D$) point of the sweep. */
struct CacheDesignPoint
{
    std::uint64_t icache_bytes = 0;
    std::uint64_t dcache_bytes = 0;
    double ipc = 0.0;
    Weeks ttm{0.0};
    Dollars cost{0.0};
    /** Cache share of total die area (the Fig. 6 color axis). */
    double cache_area_fraction = 0.0;

    double ipcPerTtm() const { return ipc / ttm.value(); }
    double ipcPerCost() const { return ipc / cost.value(); }
};

/**
 * Sweep configuration. Grid point (i, j) is batch-driver point
 * i * |sizes| + j; failed points are dropped from the returned sweep
 * under SkipAndRecord, and point order and the best-point selections
 * are identical for any thread count. A checkpoint stores four values
 * per point (IPC, TTM, cost, cache area fraction) under seed 0.
 */
struct CacheSweepOptions : BatchControl
{
    /** Capacities to sweep for both caches (default 1KB..1MB). */
    std::vector<std::uint64_t> sizes_bytes;
    /** Process node of the chip. */
    std::string process = "14nm";
    /** Final chips manufactured. */
    double n_chips = 100e6;
    double tapeout_engineers = 100.0;
};

/** Cache-capacity design-space explorer. */
class CacheSweep
{
  public:
    /**
     * @param db technology snapshot
     * @param instruction_curve suite-average I-stream miss curve
     * @param data_curve suite-average D-stream miss curve
     * @param ipc_model core model used to score IPC
     * @param base chip spec; cache fields are overridden per point
     */
    CacheSweep(TechnologyDb db, MissCurve instruction_curve,
               MissCurve data_curve, IpcModel ipc_model,
               ArianeChipSpec base = {});

    /** Evaluate every (I$, D$) pair. */
    std::vector<CacheDesignPoint>
    sweep(const CacheSweepOptions& options) const;

    /** Evaluate one pair. */
    CacheDesignPoint evaluate(std::uint64_t icache_bytes,
                              std::uint64_t dcache_bytes,
                              const CacheSweepOptions& options) const;

    /** Highest IPC/TTM point (Fig. 5's purple marker). */
    static const CacheDesignPoint&
    bestByIpcPerTtm(const std::vector<CacheDesignPoint>& points);

    /** Highest IPC/cost point (Fig. 5's red marker). */
    static const CacheDesignPoint&
    bestByIpcPerCost(const std::vector<CacheDesignPoint>& points);

  private:
    TechnologyDb _db;
    MissCurve _instruction_curve;
    MissCurve _data_curve;
    IpcModel _ipc_model;
    ArianeChipSpec _base;
};

} // namespace ttmcas

#endif // TTMCAS_OPT_CACHE_OPTIMIZER_HH
