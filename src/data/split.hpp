// Dataset splitting: k-fold cross-validation and the train/calibration split
// used by split conformal prediction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace vmincqr::data {

/// One cross-validation fold as row indices into the full dataset.
struct Fold {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Shuffled k-fold split of n samples. Folds partition {0..n-1}; sizes
/// differ by at most one. Throws std::invalid_argument if k < 2 or k > n.
std::vector<Fold> k_fold(std::size_t n, std::size_t k, rng::Rng& rng);

/// Pair of disjoint index sets: proper-training and calibration.
struct TrainCalibSplit {
  std::vector<std::size_t> train;
  std::vector<std::size_t> calibration;
};

/// Randomly splits the given indices into train (fraction `train_fraction`)
/// and calibration (the rest). Both parts are guaranteed non-empty when
/// indices.size() >= 2. Throws std::invalid_argument if train_fraction is
/// outside (0, 1) or fewer than 2 indices are supplied.
TrainCalibSplit train_calibration_split(std::vector<std::size_t> indices,
                                        double train_fraction, rng::Rng& rng);

/// A design and its labels, gathered into proper-training and calibration
/// rows.
struct RowSplit {
  linalg::Matrix x_train;
  linalg::Vector y_train;
  linalg::Matrix x_calib;
  linalg::Vector y_calib;
};

/// train_calibration_split over every row of (x, y), with an Rng seeded by
/// `seed`, then the row gathers: the one split every split-conformal fit
/// uses. Throws as train_calibration_split does.
RowSplit split_rows(const linalg::Matrix& x, const linalg::Vector& y,
                    double train_fraction, std::uint64_t seed);

}  // namespace vmincqr::data
