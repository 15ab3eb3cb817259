// Blocked, register-tiled dense micro-kernels — the compute core the
// predict/fit hot cones dispatch onto.
//
// Blocking only changes WHICH loads are shared between output elements and
// where a partial sum lives (a register instead of memory), never the
// per-element floating-point summation order: out(i, j) still accumulates
// its terms in ascending order from the caller's initial value, with the
// same exact-zero skips, exactly like the scalar loops these kernels
// replaced. Results are bit-identical to that reference and thread-count
// invariant, at fit time and at serve time alike.
#pragma once

#include <cstddef>

namespace vmincqr::linalg {

// All matrices are dense row-major with explicit leading dimensions, so the
// kernels slice blocks out of larger matrices without copies. No bounds
// checks (hot path); callers own shape validation.

/// C(m x n, ldc) += A(m x k, lda) * B(k x n, ldb). C must be initialized by
/// the caller (zeros, or a bias row — whatever the reference scalar loop
/// started from). Keeps the classic i-k-j per-element order including the
/// exact-zero skip on A entries.
void gemm(std::size_t m, std::size_t k, std::size_t n, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc);

/// C(k x n, ldc) += A(m x k, lda)^T * B(m x n, ldb) — the gradient-side
/// kernel (accumulating X^T * dL without materializing the transpose). Per
/// output element the m-terms accumulate in ascending m, skipping the terms
/// whose B factor is an exact zero.
void gemm_at(std::size_t m, std::size_t k, std::size_t n, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc);

/// y(m) = A(m x n, lda) * x(n), overwriting y; each row's dot product
/// accumulates in ascending j.
void gemv(std::size_t m, std::size_t n, const double* a, std::size_t lda,
          const double* x, double* y);

/// out[j] = squared Euclidean distance between row `a` (length d) and row j
/// of B(nb x d, ldb), for j in [0, nb). Each pair's d-terms accumulate in
/// ascending order (the row_sq_dist reference).
void row_sq_dists(const double* a, std::size_t d, const double* b,
                  std::size_t ldb, std::size_t nb, double* out);

}  // namespace vmincqr::linalg
