#include "data/feature_select.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace vmincqr::data {

namespace {

// Absolute Pearson correlation between column j of x and v.
double abs_corr_col(const Matrix& x, std::size_t j, const Vector& v) {
  return std::abs(stats::pearson(x.col(j), v));
}

/// Per-column moments of x as stats::pearson forms them for a column: the
/// mean divides the ascending-row sum by n, and ss is the ascending-row sum
/// of squared deviations from that mean. Two row-major passes, no copies.
struct ColumnMoments {
  std::vector<double> mean;
  std::vector<double> ss;
};

ColumnMoments column_moments(const Matrix& x) {
  const std::size_t d = x.cols();
  ColumnMoments m{std::vector<double>(d, 0.0), std::vector<double>(d, 0.0)};
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_ptr(i);
    for (std::size_t j = 0; j < d; ++j) m.mean[j] += row[j];
  }
  for (double& mj : m.mean) mj /= static_cast<double>(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_ptr(i);
    for (std::size_t j = 0; j < d; ++j) {
      const double da = row[j] - m.mean[j];
      m.ss[j] += da * da;
    }
  }
  return m;
}

/// dv = y - stats::mean(y); returns the ascending sum of dv[i]^2.
double centre(const Vector& y, Vector& dv) {
  const double my = stats::mean(y);
  double ss = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    dv[i] = y[i] - my;
    ss += dv[i] * dv[i];
  }
  return ss;
}

/// out[j] = |stats::pearson(column j of x, v)| for every column j, given v
/// centred as dv with squared-deviation sum ss_v. One row-major pass forms
/// every column's cross sum over ascending rows; each sum, product, square
/// root, guard and clamp is pearson's own, on the same operands in the same
/// order, so every |r| equals that function's bit for bit.
void abs_corr_all(const Matrix& x, const ColumnMoments& m, const Vector& dv,
                  double ss_v, std::vector<double>& out) {
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.row_ptr(i);
    const double db = dv[i];
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] += (row[j] - m.mean[j]) * db;
    }
  }
  for (std::size_t j = 0; j < out.size(); ++j) {
    const double denom = std::sqrt(m.ss[j] * ss_v);
    out[j] = denom <= 0.0 || !std::isfinite(denom)
                 ? 0.0
                 : std::abs(std::clamp(out[j] / denom, -1.0, 1.0));
  }
}

}  // namespace

double cfs_merit(const Matrix& x, const Vector& y,
                 const std::vector<std::size_t>& subset) {
  if (subset.empty()) throw std::invalid_argument("cfs_merit: empty subset");
  for (auto j : subset) {
    if (j >= x.cols()) throw std::invalid_argument("cfs_merit: bad index");
  }
  const auto k = static_cast<double>(subset.size());
  double rcf = 0.0;
  for (auto j : subset) rcf += abs_corr_col(x, j, y);
  rcf /= k;

  double rff = 0.0;
  if (subset.size() > 1) {
    std::size_t pairs = 0;
    for (std::size_t a = 0; a < subset.size(); ++a) {
      const Vector ca = x.col(subset[a]);
      for (std::size_t b = a + 1; b < subset.size(); ++b) {
        rff += std::abs(stats::pearson(ca, x.col(subset[b])));
        ++pairs;
      }
    }
    rff /= static_cast<double>(pairs);
  }

  const double denom = std::sqrt(k + k * (k - 1.0) * rff);
  if (denom <= 0.0) return 0.0;
  return k * rcf / denom;
}

std::vector<std::size_t> cfs_select(const Matrix& x, const Vector& y,
                                    std::size_t max_features) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("cfs_select: dimension mismatch");
  }
  if (x.empty() || max_features == 0) return {};
  const std::size_t budget = std::min<std::size_t>(max_features, x.cols());

  const ColumnMoments moments = column_moments(x);
  Vector centred(x.rows());
  const double ss_y = centre(y, centred);
  std::vector<double> rcf(x.cols());
  abs_corr_all(x, moments, centred, ss_y, rcf);

  std::vector<std::size_t> selected;
  std::vector<bool> used(x.cols(), false);

  // Seed with the single most label-correlated feature.
  std::size_t best0 = 0;
  for (std::size_t j = 1; j < x.cols(); ++j) {
    if (rcf[j] > rcf[best0]) best0 = j;
  }
  selected.push_back(best0);
  used[best0] = true;

  // Incremental merit bookkeeping: the subset's sums of |r_cf| and of
  // pairwise |r_ff|, and per column add_rff[j], the sum of |r_ff| between
  // column j and the selected columns, added in selection order.
  double sum_rcf = rcf[best0];
  double sum_rff = 0.0;
  std::vector<double> add_rff(x.cols(), 0.0);
  std::vector<double> r_new(x.cols());

  while (selected.size() < budget) {
    // Only the newest selected column is new to add_rff this round.
    const std::size_t newest = selected.back();
    for (std::size_t i = 0; i < x.rows(); ++i) {
      centred[i] = x(i, newest) - moments.mean[newest];
    }
    abs_corr_all(x, moments, centred, moments.ss[newest], r_new);
    for (std::size_t j = 0; j < x.cols(); ++j) add_rff[j] += r_new[j];

    double best_merit = -1.0;
    std::size_t best_j = x.cols();
    for (std::size_t j = 0; j < x.cols(); ++j) {
      if (used[j]) continue;
      const auto k = static_cast<double>(selected.size() + 1);
      const double mean_rcf = (sum_rcf + rcf[j]) / k;
      const double pairs = k * (k - 1.0) / 2.0;
      const double mean_rff =
          pairs > 0.0 ? (sum_rff + add_rff[j]) / pairs : 0.0;
      const double denom = std::sqrt(k + k * (k - 1.0) * mean_rff);
      const double merit = denom > 0.0 ? k * mean_rcf / denom : 0.0;
      if (merit > best_merit) {
        best_merit = merit;
        best_j = j;
      }
    }
    if (best_j == x.cols()) break;  // no candidates left
    used[best_j] = true;
    selected.push_back(best_j);
    sum_rcf += rcf[best_j];
    sum_rff += add_rff[best_j];
  }
  return selected;
}

std::vector<std::size_t> top_correlated(const Matrix& x, const Vector& y,
                                        std::size_t k) {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("top_correlated: dimension mismatch");
  }
  if (x.cols() == 0) return {};
  Vector centred(x.rows());
  const double ss_y = centre(y, centred);
  std::vector<double> r(x.cols());
  abs_corr_all(x, column_moments(x), centred, ss_y, r);
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) scored.emplace_back(r[j], j);
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::size_t> out;
  out.reserve(std::min<std::size_t>(k, scored.size()));
  for (std::size_t i = 0; i < scored.size() && i < k; ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace vmincqr::data
