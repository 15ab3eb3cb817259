#include "linalg/kernels.hpp"

namespace vmincqr::linalg {
namespace {

/// Rows processed together: one pass over x (or the query row) feeds this
/// many output rows, cutting its traffic by the block factor while leaving
/// every per-element accumulation order untouched.
constexpr std::size_t kRowBlock = 4;

/// Output columns that accumulate together in registers: each c(i, j) of a
/// block is loaded once, takes its whole reduction in a register and is
/// stored once, instead of a load and a store per reduction term. One block
/// holds a whole MLP hidden layer (h = 16); single columns take the rest of
/// any other width.
constexpr std::size_t kColBlock = 16;

/// crow[0..W) += sum over ascending kk of arow[kk] * (row kk of B)[0..W),
/// skipping each kk whose A entry is an exact zero — the scalar reference's
/// skip-set (a skipped term is not a no-op in IEEE: -0.0 + 0.0 is +0.0).
template <std::size_t W>
void gemm_cols(std::size_t k, const double* arow, const double* b,
               std::size_t ldb, double* crow) {
  double acc[W] = {};
  for (std::size_t r = 0; r < W; ++r) acc[r] = crow[r];
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double aik = arow[kk];
    // Sparsity fast path: skipping an exact zero is lossless.
    if (aik == 0.0) continue;  // vmincqr-lint: allow(float-equality)
    const double* brow = b + kk * ldb;
    for (std::size_t r = 0; r < W; ++r) acc[r] += aik * brow[r];
  }
  for (std::size_t r = 0; r < W; ++r) crow[r] = acc[r];
}

/// crow[0..W) += sum over ascending samples i of acol_i * (row i of B)[0..W),
/// every term added: no skip, so no data-dependent branch in the loop.
template <std::size_t W>
void gemm_at_cols(std::size_t m, const double* acol, std::size_t lda,
                  const double* b, std::size_t ldb, double* crow) {
  double acc[W] = {};
  for (std::size_t r = 0; r < W; ++r) acc[r] = crow[r];
  for (std::size_t i = 0; i < m; ++i) {
    const double ai = acol[i * lda];
    const double* brow = b + i * ldb;
    for (std::size_t r = 0; r < W; ++r) acc[r] += ai * brow[r];
  }
  for (std::size_t r = 0; r < W; ++r) crow[r] = acc[r];
}

}  // namespace

// gemm and gemm_at start on a 64-byte boundary, so the MLP epoch that spends
// its time in them does not change speed when edits to objects linked before
// this one shift the code.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((aligned(64)))
#endif
void gemm(std::size_t m, std::size_t k, std::size_t n, const double* a,
          std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * lda;
    double* crow = c + i * ldc;
    std::size_t j = 0;
    for (; j + kColBlock <= n; j += kColBlock) {
      gemm_cols<kColBlock>(k, arow, b + j, ldb, crow + j);
    }
    for (; j < n; ++j) gemm_cols<1>(k, arow, b + j, ldb, crow + j);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
__attribute__((aligned(64)))
#endif
void gemm_at(std::size_t m, std::size_t k, std::size_t n, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc) {
  // c(kk, j) accumulates over samples i in ascending order.
  for (std::size_t kk = 0; kk < k; ++kk) {
    double* crow = c + kk * ldc;
    std::size_t j = 0;
    for (; j + kColBlock <= n; j += kColBlock) {
      gemm_at_cols<kColBlock>(m, a + kk, lda, b + j, ldb, crow + j);
    }
    for (; j < n; ++j) gemm_at_cols<1>(m, a + kk, lda, b + j, ldb, crow + j);
  }
}

void gemv(std::size_t m, std::size_t n, const double* a, std::size_t lda,
          const double* x, double* y) {
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t i1 = i0 + kRowBlock < m ? i0 + kRowBlock : m;
    double acc[kRowBlock] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t rows = i1 - i0;
    for (std::size_t j = 0; j < n; ++j) {
      const double xj = x[j];
      for (std::size_t r = 0; r < rows; ++r) {
        acc[r] += a[(i0 + r) * lda + j] * xj;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) y[i0 + r] = acc[r];
  }
}

void row_sq_dists(const double* a, std::size_t d, const double* b,
                  std::size_t ldb, std::size_t nb, double* out) {
  for (std::size_t j0 = 0; j0 < nb; j0 += kRowBlock) {
    const std::size_t j1 = j0 + kRowBlock < nb ? j0 + kRowBlock : nb;
    double acc[kRowBlock] = {0.0, 0.0, 0.0, 0.0};
    const std::size_t rows = j1 - j0;
    for (std::size_t c = 0; c < d; ++c) {
      const double ac = a[c];
      for (std::size_t r = 0; r < rows; ++r) {
        const double diff = ac - b[(j0 + r) * ldb + c];
        acc[r] += diff * diff;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) out[j0 + r] = acc[r];
  }
}

}  // namespace vmincqr::linalg
