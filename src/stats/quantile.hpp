// Empirical quantiles, including the finite-sample conformal quantile used
// by split conformal prediction (Sec. III-B/III-C of the paper).
#pragma once

#include <cstddef>
#include <vector>

#include "core/units.hpp"

namespace vmincqr::stats {

/// Linear-interpolation empirical quantile (the common "type 7" rule).
/// q must be in [0, 1]. Throws std::invalid_argument on empty input or
/// q outside [0, 1].
double quantile_linear(std::vector<double> values, double q);

/// Higher-order-statistic quantile: returns the ceil(q * n)-th smallest
/// value (1-indexed), i.e. the smallest v such that at least a fraction q of
/// the sample is <= v. q in (0, 1]. Throws on empty input.
double quantile_higher(std::vector<double> values, double q);

/// The conformal calibration quantile of Eq. (7)/(9):
/// the ceil((M+1)(1-alpha))/M-th empirical quantile of the M scores.
/// When ceil((M+1)(1-alpha)) > M (calibration set too small for the target
/// coverage) the interval must be infinite to retain the guarantee; this
/// function then returns +infinity.
/// Throws std::invalid_argument if scores is empty, and a "precondition"
/// core::contract_violation in every build type if a score is NaN or
/// infinite; alpha validity is guaranteed by core::MiscoverageAlpha
/// construction.
double conformal_quantile(std::vector<double> scores,
                          core::MiscoverageAlpha alpha);

/// Smallest calibration-set size for which conformal_quantile is finite at
/// miscoverage alpha: the least M with ceil((M+1)(1-alpha)) <= M.
std::size_t min_calibration_size(core::MiscoverageAlpha alpha);

}  // namespace vmincqr::stats
