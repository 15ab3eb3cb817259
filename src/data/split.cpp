#include "data/split.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace vmincqr::data {

std::vector<Fold> k_fold(std::size_t n, std::size_t k, rng::Rng& rng) {
  if (k < 2) throw std::invalid_argument("k_fold: k must be >= 2");
  if (k > n) throw std::invalid_argument("k_fold: k must be <= n");
  std::vector<std::size_t> perm = rng.permutation(n);

  std::vector<Fold> folds(k);
  // Distribute samples round-robin so fold sizes differ by at most one.
  std::vector<std::vector<std::size_t>> buckets(k);
  for (std::size_t i = 0; i < n; ++i) buckets[i % k].push_back(perm[i]);

  for (std::size_t f = 0; f < k; ++f) {
    folds[f].test = buckets[f];
    for (std::size_t g = 0; g < k; ++g) {
      if (g == f) continue;
      folds[f].train.insert(folds[f].train.end(), buckets[g].begin(),
                            buckets[g].end());
    }
    std::sort(folds[f].test.begin(), folds[f].test.end());
    std::sort(folds[f].train.begin(), folds[f].train.end());
  }
  return folds;
}

TrainCalibSplit train_calibration_split(std::vector<std::size_t> indices,
                                        double train_fraction, rng::Rng& rng) {
  if (indices.size() < 2) {
    throw std::invalid_argument(
        "train_calibration_split: need at least 2 samples");
  }
  if (!(train_fraction > 0.0) || !(train_fraction < 1.0)) {
    throw std::invalid_argument(
        "train_calibration_split: train_fraction outside (0, 1)");
  }
  rng.shuffle(indices);
  auto n_train = static_cast<std::size_t>(
      std::round(train_fraction * static_cast<double>(indices.size())));
  n_train = std::clamp<std::size_t>(n_train, 1, indices.size() - 1);

  TrainCalibSplit split;
  split.train.assign(indices.begin(),
                     indices.begin() + static_cast<std::ptrdiff_t>(n_train));
  split.calibration.assign(
      indices.begin() + static_cast<std::ptrdiff_t>(n_train), indices.end());
  std::sort(split.train.begin(), split.train.end());
  std::sort(split.calibration.begin(), split.calibration.end());
  return split;
}

RowSplit split_rows(const linalg::Matrix& x, const linalg::Vector& y,
                    double train_fraction, std::uint64_t seed) {
  std::vector<std::size_t> indices(x.rows());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng::Rng rng(seed);
  const TrainCalibSplit split =
      train_calibration_split(std::move(indices), train_fraction, rng);
  const auto gather = [&y](const std::vector<std::size_t>& rows) {
    linalg::Vector out(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) out[i] = y[rows[i]];
    return out;
  };
  return {x.take_rows(split.train), gather(split.train),
          x.take_rows(split.calibration), gather(split.calibration)};
}

}  // namespace vmincqr::data
