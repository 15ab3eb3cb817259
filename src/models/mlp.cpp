#include "models/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/kernels.hpp"
#include "parallel/parallel_for.hpp"

namespace vmincqr::models {

namespace {

/// Samples per gradient chunk. Fixed (never thread-count derived): the
/// chunk grid defines the floating-point summation order, which must be a
/// pure function of the data so results are identical at any thread count.
constexpr std::size_t kMlpGrain = 32;

/// Per-chunk training scratch: gradient accumulator plus the activation
/// slab (z) and hidden-layer sensitivity slab (dh) of the blocked forward /
/// backward passes, so concurrent chunks never share state and the epoch
/// loop never touches the allocator.
struct MlpChunkScratch {
  std::vector<double> grads;
  std::vector<double> z;   ///< chunk_rows x h pre-activations, then ReLU(z)
  std::vector<double> dh;  ///< chunk_rows x h hidden-layer gradients
};

/// Adam state for one flat parameter vector.
struct AdamState {
  std::vector<double> m, v;
  int t = 0;
  explicit AdamState(std::size_t n) : m(n, 0.0), v(n, 0.0) {}
  // Kept out of line: GCC 12 misattributes the vector deallocations when the
  // destructor inlines into fit()'s epoch scope (-Wfree-nonheap-object false
  // positive under -O2), which would break -Werror CI builds.
#if defined(__GNUC__) && !defined(__clang__)
  __attribute__((noinline))
#endif
  ~AdamState() = default;

  void step(std::vector<double>& params, const std::vector<double>& grads,
            double lr) {
    constexpr double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    ++t;
    const double bc1 = 1.0 - std::pow(beta1, t);
    const double bc2 = 1.0 - std::pow(beta2, t);
    for (std::size_t i = 0; i < params.size(); ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * grads[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * grads[i] * grads[i];
      params[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
    }
  }
};

/// What an epoch's gradient chunks read; they share it read-only.
struct MlpEpochInputs {
  const Matrix& xs;  ///< standardized features
  const Vector& ys;  ///< standardized labels
  const Loss& loss;
  const double* params;  ///< w1 (d x h) | b1 (h) | w2 (h) | b2 (1)
  std::size_t d;
  std::size_t h;
  double inv_n;
};

/// One chunk of an epoch: the loss gradient of samples [begin, end) into
/// s.grads, in the order of the per-sample loop the blocked kernels replaced.
///
/// Kept out of line and started on a 64-byte boundary, as are the gemm and
/// gemm_at it calls, so its speed does not hang on how far edits to objects
/// linked before this one shift it: MLP fits ran about 4 % slower when
/// nothing but the code layout moved.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((noinline, aligned(64)))
#endif
void mlp_chunk_gradient(const MlpEpochInputs& in, MlpChunkScratch& s,
                        std::size_t begin, std::size_t end) {
  const std::size_t d = in.d;
  const std::size_t h = in.h;
  const double* w1 = in.params;
  const double* b1 = w1 + d * h;
  const double* w2 = b1 + h;
  const double* b2 = w2 + h;
  std::fill(s.grads.begin(), s.grads.end(), 0.0);
  double* gw1 = s.grads.data();
  double* gb1 = gw1 + d * h;
  double* gw2 = gb1 + h;
  double* gb2 = gw2 + h;
  const std::size_t rows = end - begin;

  // Blocked forward: Z <- b1 (broadcast), then Z += X_chunk * W1.
  // The kernel accumulates each z(i,j) in ascending k on top of the
  // caller-seeded b1[j] — the same summation order as the old
  // per-sample loop, so the activations are bit-identical.
  double* z = s.z.data();
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(b1, b1 + h, z + r * h);
  }
  linalg::gemm(rows, d, h, in.xs.row_ptr(begin), d, w1, h, z, h);

  double* dhm = s.dh.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t i = begin + r;
    double* zr = z + r * h;
    // ReLU in place; the output sum visits all j like the old loop.
    double out = *b2;
    for (std::size_t j = 0; j < h; ++j) {
      zr[j] = zr[j] > 0.0 ? zr[j] : 0.0;
      out += w2[j] * zr[j];
    }

    // Backward (dense layers); gw1 is deferred to the gemm_at below.
    // A dead unit's dh is +-0.0, and adding it to gb1[j] changes no
    // bit: gb1 starts at +0.0 and so never holds -0.0 (see gemm_at).
    const double dl = in.loss.gradient(in.ys[i], out) * in.inv_n;
    *gb2 += dl;
    for (std::size_t j = 0; j < h; ++j) {
      gw2[j] += dl * zr[j];
      const double dh = zr[j] > 0.0 ? dl * w2[j] : 0.0;
      dhm[r * h + j] = dh;
      gb1[j] += dh;
    }
  }
  // gw1 += X_chunk^T * DH, each (k, j) element over ascending
  // samples. gw1 starts at +0.0 and xs is finite (checked in fit), so
  // this equals skipping the dh == 0 terms, bit for bit.
  linalg::gemm_at(rows, d, h, in.xs.row_ptr(begin), d, dhm, h, gw1, h);
}

}  // namespace

MlpRegressor::MlpRegressor(MlpConfig config) : config_(config) {
  if (config_.hidden_units == 0) {
    throw std::invalid_argument("MlpRegressor: hidden_units == 0");
  }
  if (config_.epochs <= 0 || config_.learning_rate <= 0.0) {
    throw std::invalid_argument("MlpRegressor: bad optimizer settings");
  }
  if (config_.l2_penalty < 0.0) {
    throw std::invalid_argument("MlpRegressor: negative l2_penalty");
  }
}

void MlpRegressor::fit(const Matrix& x, const Vector& y) {
  check_fit_args(x, y);
  // The scalers fit into locals, so a rejected fit leaves the model as it was.
  // They refuse a non-finite mean or scale, so xs and ys are finite, as the
  // epoch's gemm_at requires.
  data::StandardScaler scaler;
  const Matrix xs = scaler.fit_transform(x);
  data::LabelScaler label_scaler;
  label_scaler.fit(y);
  const Vector ys = label_scaler.transform(y);

  const std::size_t n = xs.rows();
  const std::size_t d = xs.cols();
  const std::size_t h = config_.hidden_units;

  // He initialization for the ReLU layer.
  rng::Rng rng(config_.seed);
  const double w1_scale = std::sqrt(2.0 / static_cast<double>(d));
  const double w2_scale = std::sqrt(2.0 / static_cast<double>(h));
  std::vector<double> params(d * h + h + h + 1, 0.0);
  double* w1 = params.data();
  double* b1 = w1 + d * h;
  double* w2 = b1 + h;
  double* b2 = w2 + h;
  for (std::size_t i = 0; i < d * h; ++i) w1[i] = rng.normal(0.0, w1_scale);
  for (std::size_t j = 0; j < h; ++j) w2[j] = rng.normal(0.0, w2_scale);

  std::vector<double> grads(params.size(), 0.0);
  AdamState adam(params.size());

  // One scratch slot per chunk of the fixed sample grid, reused across all
  // epochs. Chunks of one epoch run concurrently; their partial gradients
  // fold in ascending chunk order below, so the epoch gradient is the same
  // double at every thread count.
  const std::size_t n_chunks = parallel::chunk_count(n, kMlpGrain);
  std::vector<MlpChunkScratch> scratch(n_chunks);
  for (auto& s : scratch) {
    s.grads.assign(params.size(), 0.0);
    s.z.assign(kMlpGrain * h, 0.0);
    s.dh.assign(kMlpGrain * h, 0.0);
  }

  const double inv_n = 1.0 / static_cast<double>(n);
  const MlpEpochInputs inputs{xs, ys, config_.loss, params.data(), d, h, inv_n};
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    parallel::for_each_chunk(
        n, kMlpGrain,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          mlp_chunk_gradient(inputs, scratch[chunk], begin, end);
        },
        /*use_pool=*/n >= 2 * kMlpGrain);
    // Deterministic fold: chunk partials in ascending chunk index.
    std::fill(grads.begin(), grads.end(), 0.0);
    for (const MlpChunkScratch& s : scratch) {
      for (std::size_t i = 0; i < grads.size(); ++i) grads[i] += s.grads[i];
    }
    // L2 penalty on weights (not biases), matching torch-style weight decay.
    if (config_.l2_penalty > 0.0) {
      double* gw1 = grads.data();
      double* gw2 = grads.data() + d * h + h;
      for (std::size_t i = 0; i < d * h; ++i) {
        gw1[i] += config_.l2_penalty * w1[i] * inv_n;
      }
      for (std::size_t j = 0; j < h; ++j) {
        gw2[j] += config_.l2_penalty * w2[j] * inv_n;
      }
    }
    adam.step(params, grads, config_.learning_rate);
  }

  // Persist the scalers and parameters.
  scaler_ = std::move(scaler);
  label_scaler_ = std::move(label_scaler);
  n_features_ = d;
  w1_ = Matrix(d, h);
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t j = 0; j < h; ++j) w1_(k, j) = w1[k * h + j];
  }
  b1_.assign(b1, b1 + h);
  w2_.assign(w2, w2 + h);
  b2_ = *b2;
  fitted_ = true;
}

namespace {

/// Rows per forward() activation slab. Fixed (never thread-count derived):
/// per-row results are chunk-independent, but a fixed grain also bounds the
/// per-chunk scratch at kForwardGrain * h doubles regardless of batch size.
constexpr std::size_t kForwardGrain = 256;

}  // namespace

Vector MlpRegressor::forward(const Matrix& xs) const {
  // Width comes from the fitted parameters, not the config, so an imported
  // parameter set with a different hidden width evaluates correctly.
  const std::size_t h = b1_.size();
  const std::size_t d = xs.cols();
  Vector out(xs.rows());
  parallel::for_each_chunk(
      xs.rows(), kForwardGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        (void)chunk;
        const std::size_t rows = end - begin;
        // Per-chunk activation slab: Z <- b1 (broadcast), Z += X_chunk * W1
        // through the blocked kernel, which seeds each z(i, j) with b1[j]
        // and adds in ascending k — the per-sample loop's exact order.
        std::vector<double> z(rows * h);
        for (std::size_t r = 0; r < rows; ++r) {
          std::copy(b1_.begin(), b1_.end(), z.begin() + r * h);
        }
        linalg::gemm(rows, d, h, xs.row_ptr(begin), d, w1_.row_ptr(0), h,
                     z.data(), h);
        for (std::size_t r = 0; r < rows; ++r) {
          const double* zr = z.data() + r * h;
          double acc = b2_;
          for (std::size_t j = 0; j < h; ++j) {
            if (zr[j] > 0.0) acc += w2_[j] * zr[j];
          }
          out[begin + r] = acc;
        }
      },
      /*use_pool=*/xs.rows() * h >= 4096);
  return out;
}

Vector MlpRegressor::predict(const Matrix& x) const {
  check_predict_args(x, n_features_, fitted_);
  Vector ys = forward(scaler_.transform(x));
  return label_scaler_.inverse_transform(ys);
}

std::unique_ptr<Regressor> MlpRegressor::clone_config() const {
  return std::make_unique<MlpRegressor>(config_);
}

MlpParams MlpRegressor::export_params() const {
  if (!fitted_) {
    throw std::logic_error("MlpRegressor::export_params: not fitted");
  }
  return {scaler_.export_params(), label_scaler_.export_params(),
          w1_, b1_, w2_, b2_};
}

void MlpRegressor::import_params(MlpParams params) {
  const std::size_t h = params.b1.size();
  if (h == 0 || params.w1.rows() != params.scaler.means.size() ||
      params.w1.cols() != h || params.w2.size() != h) {
    throw std::invalid_argument(
        "MlpRegressor::import_params: layer shape mismatch");
  }
  scaler_.import_params(std::move(params.scaler));
  label_scaler_.import_params(params.label);
  w1_ = std::move(params.w1);
  b1_ = std::move(params.b1);
  w2_ = std::move(params.w2);
  b2_ = params.b2;
  n_features_ = w1_.rows();
  fitted_ = true;
}

}  // namespace vmincqr::models
