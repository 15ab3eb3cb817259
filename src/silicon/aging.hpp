// Aging (wear-out) model for the burn-in stress experiment.
//
// The paper stresses chips with dynamic Dhrystone at elevated voltage for
// 1008 hours and reads out at {0, 24, 48, 168, 504, 1008} h. We model the
// dominant mechanisms (NBTI/HCI) with the standard sub-linear power law
//   dVth_age(t) = A * activity * (t / t_ref)^n,
// n ~ 0.2, which saturates slowly — matching the paper's observation that
// monitor information stays predictive out to 1008 h.
#pragma once

#include <vector>

#include "core/units.hpp"
#include "silicon/process.hpp"

namespace vmincqr::silicon {

struct AgingConfig {
  double amplitude = 0.022;  ///< A: asymptotic-scale Vth shift (V) at t_ref
  double exponent = 0.2;     ///< n: power-law exponent
  double t_ref_hours = 1008.0;  ///< reference stress time
  /// Weak process dependence: high-|dvth| chips age slightly faster.
  double vth_coupling = 0.15;
  /// Defective chips degrade faster (latent defect accelerates wear-out).
  double defect_coupling = 0.35;
};

/// Deterministic aging response for a chip at a stress time.
class AgingModel {
 public:
  explicit AgingModel(AgingConfig config = {});

  /// Equivalent threshold-voltage shift (V) accumulated by `hours` of
  /// stress. Zero at t=0; monotone nondecreasing in t. core::Hours
  /// construction already rejects negative or non-finite durations.
  [[nodiscard]] double delta_vth(const ChipLatent& chip, core::Hours hours) const;

  [[nodiscard]] const AgingConfig& config() const noexcept { return config_; }

 private:
  AgingConfig config_;
};

/// The paper's stress read points (hours): {0, 24, 48, 168, 504, 1008}.
const std::vector<double>& standard_read_points();

/// The paper's SCAN Vmin test temperatures (deg C): {-45, 25, 125}.
const std::vector<double>& standard_temperatures();

}  // namespace vmincqr::silicon
