// Standard-normal distribution utilities (CDF and quantile function), used by
// the Gaussian-process interval construction, Eq. (4) of the paper.
#pragma once

namespace vmincqr::stats {

/// Standard normal cumulative distribution function Phi(x).
double normal_cdf(double x);

/// Inverse standard normal CDF Phi^{-1}(p) for p in (0, 1).
/// Throws std::invalid_argument for p outside (0, 1).
/// Acklam's rational approximation refined with one Halley step;
/// absolute error < 1e-9 over (1e-300, 1 - 1e-16).
double normal_quantile(double p);

}  // namespace vmincqr::stats
