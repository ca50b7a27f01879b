#ifndef TTMCAS_CORE_CAS_HH
#define TTMCAS_CORE_CAS_HH

/**
 * @file
 * The Chip Agility Score (paper Section 4, Eq. 8):
 *
 *   CAS = ( sum_{p in d} | dTTM(c, d, n, p) / dmuW(p) | )^(-1)
 *
 * The derivative of time-to-market with respect to each used node's
 * effective wafer rate muW(p) is taken in closed form: TTM depends on
 * muW(p) only through node p's fab time (Q_p + W_p) / muW(p) + L_fab
 * inside the max over nodes (Eq. 3-5), so |dTTM/dmuW(p)| is
 * (Q_p + W_p) / muW(p)^2 at the fab bottleneck and 0 elsewhere. At an
 * exact tie for the bottleneck the max has a kink; the slope there is
 * the h -> 0 limit of a central difference, half of each tied node's
 * slope. The magnitudes are summed over every process node the design
 * uses, and the inverse is taken so a *higher* CAS means a more agile
 * (less production-bottlenecked) architecture.
 *
 * Raw CAS carries units of wafers/week^2. The paper plots "normalized
 * wafers/week^2"; we divide by a single fixed constant
 * (kCasNormalization) chosen once so the A11-at-7nm/10M-chips full-
 * capacity score lands on the paper's ~175 axis value. Because the
 * constant is global, every relative comparison is unaffected.
 */

#include <vector>

#include "core/market.hh"
#include "core/ttm_batch.hh"
#include "core/ttm_model.hh"
#include "stats/batch_driver.hh"

namespace ttmcas {

/** Normalization divisor applied to raw CAS for paper-scale plots. */
inline constexpr double kCasNormalization = 2600.0;

/** One point of a production-capacity sweep (Figs. 3, 9, 12, 13c). */
struct CasPoint
{
    double capacity_fraction = 1.0; ///< % of max production rate / 100
    Weeks ttm{0.0};
    double cas = 0.0;               ///< normalized CAS
};

/**
 * Eq. 8's slope sum, sum_p |dTTM/dmuW(p)| in weeks per (wafer/week),
 * of one TtmModel evaluation: each bottleneck node's
 * (queue_time + wafers / rate) / rate from its NodeFabDetail, halved
 * when more than one node ties for the maximum fab time.
 */
double rateSlopeSum(const TtmResult& result);

/** Evaluates Eq. 8 on top of a TtmModel. */
class CasModel
{
  public:
    struct Options
    {
        /** Divisor applied to raw CAS (see kCasNormalization). */
        double normalization = kCasNormalization;
        /**
         * Engine for the capacity sweep: the compiled batch kernels
         * (default) or the legacy scalar oracle. Results are bitwise
         * identical either way (ctest -L kernel enforces it); kScalar
         * exists for oracle comparison and debugging.
         */
        EvalPath eval_path = EvalPath::kBatch;
    };

    /** Build with default options (paper normalization, batch path). */
    explicit CasModel(TtmModel model);

    CasModel(TtmModel model, Options options);

    const TtmModel& ttmModel() const { return _model; }

    /**
     * dTTM/dmuW for one node of the design, in weeks per (wafer/week),
     * at the market's current effective rate, from one evaluation:
     * -(Q + W) / muW^2 when the node is the fab bottleneck, half that
     * at an exact tie for the bottleneck, 0 otherwise. Throws
     * ModelError when the design has no die on @p process.
     */
    double dTtmDMu(const ChipDesign& design, double n_chips,
                   const MarketConditions& market,
                   const std::string& process) const;

    /** Raw Eq. 8 score in wafers/week^2. */
    double rawCas(const ChipDesign& design, double n_chips,
                  const MarketConditions& market = {}) const;

    /** Normalized score (raw / normalization), the plotted quantity. */
    double cas(const ChipDesign& design, double n_chips,
               const MarketConditions& market = {}) const;

    /**
     * Sweep global production capacity over @p fractions (applied to
     * *all* nodes the design uses, like the paper's x-axes) and report
     * TTM and CAS at each point. @p base supplies queue conditions.
     * Serial, and the lowest-index failure propagates: sweepPoints()
     * under a default BatchControl.
     */
    std::vector<CasPoint>
    capacitySweep(const ChipDesign& design, double n_chips,
                  const std::vector<double>& fractions,
                  const MarketConditions& base = {}) const;

    /**
     * The capacity sweep as a point-driver run under @p control
     * (threads, failure policy, fault injection, cancel, checkpoint):
     * point i is TTM and CAS with every node of the design at
     * capacity factor fractions[i]. Points run through the compiled
     * sweep kernel in chunks; a point it cannot certify re-runs the
     * scalar chain, which gives the identical value or diagnostic.
     * The kernel is named "capacity_sweep" and a checkpoint binds
     * seed 0 with two slots (TTM, CAS) per point. Every fraction must
     * be positive.
     */
    PointBatch<CasPoint>
    sweepPoints(const ChipDesign& design, double n_chips,
                const std::vector<double>& fractions,
                const MarketConditions& base,
                const BatchControl& control) const;

  private:
    TtmModel _model;
    Options _options;
};

} // namespace ttmcas

#endif // TTMCAS_CORE_CAS_HH
