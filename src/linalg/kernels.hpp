// Blocked, register-tiled dense micro-kernels — the compute core the
// predict/fit hot cones dispatch onto.
//
// Blocking only changes WHICH loads are shared between output elements and
// where a partial sum lives (a register instead of memory), never the
// per-element floating-point summation order: out(i, j) still accumulates
// its terms in ascending order from the caller's initial value, exactly like
// the scalar loop each kernel documents as its reference (gemm's keeps an
// exact-zero skip; gemm_at's adds every term). Results are bit-identical to
// that reference and thread-count invariant, at fit time and at serve time
// alike.
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
/// output element the m-terms accumulate in ascending m, every term added.
///
/// Precondition: C holds no -0.0 and A is finite. Then the result also
/// equals the loop that skips each term whose B factor is an exact zero, bit
/// for bit: a finite a times +-0.0 is +-0.0; in round-to-nearest a sum is
/// -0.0 only when both addends are, so an accumulator that starts without
/// -0.0 never holds it; and adding +-0.0 to any other value returns that
/// value unchanged.
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
