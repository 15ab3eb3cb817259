// Correlation Feature Selection (CFS) — Hall (1999) — with Pearson
// correlation, as used by the paper (Sec. IV-C) to pick 1..10 features for
// LR / GP / NN from the ~2000-dimensional raw input.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace vmincqr::data {

using linalg::Matrix;
using linalg::Vector;

/// CFS merit of a feature subset:
///   merit = k * mean|r_cf| / sqrt(k + k(k-1) * mean|r_ff|)
/// where r_cf are feature-label correlations and r_ff pairwise
/// feature-feature correlations within the subset. The from-scratch
/// definition: every r is a fresh stats::pearson of copied columns.
/// Throws std::invalid_argument on an empty subset or bad indices.
double cfs_merit(const Matrix& x, const Vector& y,
                 const std::vector<std::size_t>& subset);

/// Greedy forward CFS: starting from the single best-correlated feature,
/// repeatedly adds the feature maximizing the subset merit (ties go to the
/// lower column index), up to max_features. Returns selected column indices
/// in selection order (size min(max_features, x.cols())). Throws on
/// dimension mismatch / empty data.
///
/// Cost: each column's mean and squared deviations are formed once; each
/// round then correlates every column with the newest selected column only,
/// in one row-major pass over x, and adds that |r| to the column's running
/// sum of |r_ff|. Every r is stats::pearson's value bit for bit, and every
/// running sum adds its terms in selection order, so the merits, and the
/// selection, equal the per-round recomputation from fresh column copies.
std::vector<std::size_t> cfs_select(const Matrix& x, const Vector& y,
                                    std::size_t max_features);

/// Columns ranked by |Pearson correlation with y|, descending, ties in
/// ascending column order; returns the first k (or all, if k >= cols). One
/// row-major pass forms every |r|, each equal to stats::pearson's. The
/// tree models' prefilter and the feature-selection ablation's filter.
std::vector<std::size_t> top_correlated(const Matrix& x, const Vector& y,
                                        std::size_t k);

}  // namespace vmincqr::data
