#include "silicon/aging.hpp"

#include <cmath>
#include <stdexcept>

namespace vmincqr::silicon {

AgingModel::AgingModel(AgingConfig config) : config_(config) {
  if (config_.amplitude < 0.0) {
    throw std::invalid_argument("AgingModel: negative amplitude");
  }
  if (config_.exponent <= 0.0 || config_.exponent >= 1.0) {
    throw std::invalid_argument("AgingModel: exponent outside (0, 1)");
  }
  if (config_.t_ref_hours <= 0.0) {
    throw std::invalid_argument("AgingModel: t_ref must be positive");
  }
}

double AgingModel::delta_vth(const ChipLatent& chip,
                             core::Hours hours) const {
  if (hours.value() <= 0.0) return 0.0;
  const double base =
      config_.amplitude *
      std::pow(hours / config_.t_ref_hours, config_.exponent);
  const double vth_factor =
      1.0 + config_.vth_coupling * (std::abs(chip.dvth) / 0.012);
  const double defect_factor = 1.0 + config_.defect_coupling * chip.defect;
  return base * chip.activity * vth_factor * defect_factor;
}

const std::vector<double>& standard_read_points() {
  static const std::vector<double> points = {0.0, 24.0, 48.0, 168.0, 504.0, 1008.0};
  return points;
}

const std::vector<double>& standard_temperatures() {
  static const std::vector<double> temps = {-45.0, 25.0, 125.0};
  return temps;
}

}  // namespace vmincqr::silicon
