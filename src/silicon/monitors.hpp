// On-chip monitor models: Ring Oscillator Delay (ROD) domain sensors and
// in-situ Critical Path Delay (CPD) sensors — Table II of the paper.
//
// ROD: 168 sensors, read on ATE at 25C at every stress read point.
// CPD: 10 sensors, read in-situ in the burn-in oven at 80C.
//
// Monitor readings are causally downstream of the same aging state that
// drives Vmin degradation, which is what makes them more informative for
// degradation prediction than time-0 parametric data (paper Sec. IV-G).
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "silicon/aging.hpp"
#include "silicon/process.hpp"

namespace vmincqr::silicon {

struct MonitorConfig {
  std::size_t n_rod = 168;
  std::size_t n_cpd = 10;
  double rod_temperature_c = 25.0;
  double cpd_temperature_c = 80.0;
  double rod_noise_rel = 0.004;  ///< ATE-measured RO, tight repeatability
  double cpd_noise_rel = 0.010;  ///< in-situ sensing, noisier
};

/// Fixed per-sensor response coefficients.
struct MonitorSpec {
  std::string name;
  data::FeatureType type;  ///< kRodMonitor or kCpdMonitor
  double temperature_c;
  double base_delay;   ///< nominal delay (ns)
  double sens_vth;     ///< delay sensitivity to (dvth + aging shift)
  double sens_leff;    ///< delay sensitivity to channel-length variation
  double sens_mismatch;
  double aging_gain;   ///< extra weight on the aging component (CPD > ROD)
  double noise_rel;
  /// CPD sensors replicate a speed-critical path (see critical_path.hpp):
  /// index into standard_critical_paths(), or -1 for a generic sensor.
  int path_index = -1;
  double path_gain = 0.0;  ///< delay response per volt of path score
};

class MonitorBank {
 public:
  /// Builds the sensor catalogue deterministically from `catalogue_rng`.
  MonitorBank(MonitorConfig config, rng::Rng& catalogue_rng);

  [[nodiscard]] const std::vector<MonitorSpec>& specs() const noexcept { return specs_; }

  /// Reads every sensor for one chip at stress time `hours`.
  std::vector<double> measure(const ChipLatent& chip, const AgingModel& aging,
                              core::Hours hours, rng::Rng& meas_rng) const;

  /// Feature metadata for a given read point (names get a _t<hours> suffix).
  [[nodiscard]] std::vector<data::FeatureInfo> feature_info(double hours) const;

 private:
  MonitorConfig config_;
  std::vector<MonitorSpec> specs_;
};

}  // namespace vmincqr::silicon
