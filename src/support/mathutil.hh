#ifndef TTMCAS_SUPPORT_MATHUTIL_HH
#define TTMCAS_SUPPORT_MATHUTIL_HH

/**
 * @file
 * Small numeric helpers shared across the modeling layers.
 */

#include <cstddef>
#include <functional>
#include <vector>

namespace ttmcas {

/** True when |a - b| <= tol * max(1, |a|, |b|). */
bool approxEqual(double a, double b, double tol = 1e-9);

/** Relative difference |a - b| / max(|a|, |b|), 0 when both are 0. */
double relativeDifference(double a, double b);

/** Clamp @p value into [lo, hi]; requires lo <= hi. */
double clamp(double value, double lo, double hi);

/** Linear interpolation between a (t = 0) and b (t = 1). */
double lerp(double a, double b, double t);

/**
 * Piecewise-linear interpolation through (xs[i], ys[i]).
 *
 * xs must be strictly increasing. Values outside [xs.front(), xs.back()]
 * are linearly extrapolated from the closest segment.
 */
double interpolate(const std::vector<double>& xs,
                   const std::vector<double>& ys, double x);

/**
 * Central-difference numerical derivative of @p f at @p x.
 *
 * Uses a relative step h = max(|x|, 1) * rel_step. The CAS model takes
 * dTTM/dmuW (paper Eq. 8) in closed form; this is the numeric oracle
 * its tests and the step-size ablation check it against.
 */
double centralDifference(const std::function<double(double)>& f, double x,
                         double rel_step = 1e-4);

/** ceil(a / b) for positive integers, without overflow for our ranges. */
std::size_t ceilDiv(std::size_t a, std::size_t b);

/** True when value is finite (not NaN / inf). */
bool isFiniteNumber(double value);

/** Geometric mean of a non-empty vector of positive values. */
double geometricMean(const std::vector<double>& values);

} // namespace ttmcas

#endif // TTMCAS_SUPPORT_MATHUTIL_HH
