#include "data/scaler.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "stats/descriptive.hpp"

namespace vmincqr::data {

void StandardScaler::fit(const Matrix& x) {
  if (x.empty()) throw std::invalid_argument("StandardScaler::fit: empty");
  Vector means(x.cols(), 0.0);
  Vector scales(x.cols(), 1.0);
  const auto n = static_cast<double>(x.rows());
  VMINCQR_AUDIT(n > 0.0, "StandardScaler::fit: empty() check let 0 rows by");
  for (std::size_t c = 0; c < x.cols(); ++c) {
    double m = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) m += x(r, c);
    m /= n;
    double var = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      var += (x(r, c) - m) * (x(r, c) - m);
    }
    var /= n;
    means[c] = m;
    const double sd = std::sqrt(var);
    scales[c] = sd > 1e-300 ? sd : 1.0;
  }
  // Always on: a non-finite entry, or a finite column whose sums overflow
  // the double range, leaves a moment that would turn the column into NaN.
  // The moments commit only after the check, so a rejected fit keeps the
  // scaler as it was.
  VMINCQR_REQUIRE(core::all_finite(means) && core::all_finite(scales),
                  "StandardScaler::fit: non-finite column moments");
  means_ = std::move(means);
  scales_ = std::move(scales);
  fitted_ = true;
}

Matrix StandardScaler::transform(const Matrix& x) const {
  if (!fitted_) throw std::logic_error("StandardScaler::transform: not fitted");
  if (x.cols() != means_.size()) {
    throw std::invalid_argument("StandardScaler::transform: column mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = (x(r, c) - means_[c]) / scales_[c];
    }
  }
  return out;
}

Matrix StandardScaler::fit_transform(const Matrix& x) {
  VMINCQR_REQUIRE(!x.empty(), "StandardScaler::fit_transform: empty matrix");
  fit(x);
  return transform(x);
}

Matrix StandardScaler::inverse_transform(const Matrix& x) const {
  if (!fitted_) {
    throw std::logic_error("StandardScaler::inverse_transform: not fitted");
  }
  if (x.cols() != means_.size()) {
    throw std::invalid_argument(
        "StandardScaler::inverse_transform: column mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out(r, c) = x(r, c) * scales_[c] + means_[c];
    }
  }
  return out;
}

ScalerParams StandardScaler::export_params() const {
  if (!fitted_) {
    throw std::logic_error("StandardScaler::export_params: not fitted");
  }
  return {means_, scales_};
}

void StandardScaler::import_params(ScalerParams params) {
  if (params.means.empty() || params.means.size() != params.scales.size()) {
    throw std::invalid_argument(
        "StandardScaler::import_params: means/scales size mismatch");
  }
  for (double s : params.scales) {
    if (!(s > 0.0) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "StandardScaler::import_params: non-positive scale");
    }
  }
  means_ = std::move(params.means);
  scales_ = std::move(params.scales);
  fitted_ = true;
}

void LabelScaler::fit(const Vector& y) {
  if (y.empty()) throw std::invalid_argument("LabelScaler::fit: empty");
  const double mean = stats::mean(y);
  const double sd = stats::stddev(y);
  const double scale = sd > 1e-300 ? sd : 1.0;
  // Always on, committed after the check, as in StandardScaler::fit.
  VMINCQR_REQUIRE(std::isfinite(mean) && std::isfinite(scale),
                  "LabelScaler::fit: non-finite label moments");
  mean_ = mean;
  scale_ = scale;
  fitted_ = true;
}

Vector LabelScaler::transform(const Vector& y) const {
  if (!fitted_) throw std::logic_error("LabelScaler::transform: not fitted");
  VMINCQR_AUDIT(scale_ > 0.0, "LabelScaler::transform: degenerate scale");
  Vector out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = (y[i] - mean_) / scale_;
  return out;
}

Vector LabelScaler::inverse_transform(const Vector& y) const {
  if (!fitted_) {
    throw std::logic_error("LabelScaler::inverse_transform: not fitted");
  }
  Vector out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = y[i] * scale_ + mean_;
  return out;
}

double LabelScaler::inverse_transform(double y) const {
  if (!fitted_) {
    throw std::logic_error("LabelScaler::inverse_transform: not fitted");
  }
  return y * scale_ + mean_;
}

LabelScalerParams LabelScaler::export_params() const {
  if (!fitted_) {
    throw std::logic_error("LabelScaler::export_params: not fitted");
  }
  return {mean_, scale_};
}

void LabelScaler::import_params(LabelScalerParams params) {
  if (!std::isfinite(params.mean) || !(params.scale > 0.0) ||
      !std::isfinite(params.scale)) {
    throw std::invalid_argument("LabelScaler::import_params: bad moments");
  }
  mean_ = params.mean;
  scale_ = params.scale;
  fitted_ = true;
}

}  // namespace vmincqr::data
