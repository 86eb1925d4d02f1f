#include "lm/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "lm/lanes.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

void Tensor::randomize(util::Rng& rng, float std) {
  for (float& v : data_) {
    v = static_cast<float>(rng.normal(0.0, std));
  }
}

namespace {

/// One IB x JT output tile accumulated over k-rows [k0, kend) with the
/// partial sums held in registers; partials round-trip through `out`
/// between strips.  Every out(i, j) accumulates a(i, kk) * b(kk, j) for
/// kk = 0..k-1 in ascending order — the same float operation sequence as
/// every other path through matmul — so the result is bit-identical
/// whichever kernel a given (m, n) shape dispatches to (a register vs
/// memory round-trip does not change float rounding).  That invariant is
/// also why no path may skip aik == 0.0f terms: adding a zero product can
/// still flip the sign of a -0.0 partial sum.
template <std::size_t IB, std::size_t JT>
void matmul_strip_tile(const float* a, const float* b, float* out,
                       std::size_t k, std::size_t b_stride,
                       std::size_t out_stride, std::size_t i0, std::size_t j0,
                       std::size_t k0, std::size_t kend) {
  float acc[IB][JT];
  for (std::size_t r = 0; r < IB; ++r) {
    for (std::size_t c = 0; c < JT; ++c) {
      acc[r][c] = out[(i0 + r) * out_stride + j0 + c];
    }
  }
  for (std::size_t kk = k0; kk < kend; ++kk) {
    const float* b_row = b + kk * b_stride + j0;
    for (std::size_t r = 0; r < IB; ++r) {
      const float aik = a[(i0 + r) * k + kk];
      for (std::size_t c = 0; c < JT; ++c) acc[r][c] += aik * b_row[c];
    }
  }
  for (std::size_t r = 0; r < IB; ++r) {
    for (std::size_t c = 0; c < JT; ++c) {
      out[(i0 + r) * out_stride + j0 + c] = acc[r][c];
    }
  }
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out) {
  LMPEEL_CHECK(a.cols() == b.rows());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  out.zero();
  constexpr std::size_t kRowBlock = 8;   // rows of a per register tile
  constexpr std::size_t kColBlock = 32;  // cols of out per register tile
  constexpr std::size_t kStrip = 16;     // k-rows of b per strip
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  // Strip-blocked main kernel: b is read row-sequentially (the hardware
  // prefetcher's favourite pattern) one kStrip-deep strip at a time, and
  // each strip is applied to kRowBlock rows of a at once from registers.
  // Streaming the weight matrix once per kRowBlock rows instead of once
  // per row is what makes batched decode (m = batch) and training
  // (m = sequence length) cheaper per row than single-row decode.
  std::size_t i0 = 0;
  for (; i0 + kRowBlock <= m; i0 += kRowBlock) {
    for (std::size_t k0 = 0; k0 < k; k0 += kStrip) {
      const std::size_t kend = std::min(k0 + kStrip, k);
      for (std::size_t j0 = 0; j0 + kColBlock <= n; j0 += kColBlock) {
        matmul_strip_tile<kRowBlock, kColBlock>(ap, bp, op, k, n, n, i0, j0,
                                                k0, kend);
      }
    }
    // Column tail of this row block: plain kk-ascending dot products.
    for (std::size_t j0 = n - n % kColBlock; j0 < n; ++j0) {
      for (std::size_t r = 0; r < kRowBlock; ++r) {
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
          acc += ap[(i0 + r) * k + kk] * bp[kk * n + j0];
        }
        op[(i0 + r) * n + j0] = acc;
      }
    }
  }
  // Leftover rows (and the whole product when m < kRowBlock): k-outer
  // accumulation, which also streams each row of b exactly once.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* b_row = bp + kk * n;
    for (std::size_t i = i0; i < m; ++i) {
      const float aik = ap[i * k + kk];
      float* out_row = op + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        out_row[j] += aik * b_row[j];
      }
    }
  }
}

namespace {

/// Logits of vocab rows [j0, j0 + J) for the `rows` rows whose transposed
/// activations are in `at` ([k x kWidth], lane r = row r).  The J
/// accumulators are independent, which hides the add latency.
template <class L, std::size_t J>
void head_block(const float* at, const float* bt, std::size_t k,
                std::size_t j0, std::size_t rows, float* out,
                std::size_t out_stride) {
  constexpr std::size_t W = L::kWidth;
  typename L::V acc[J];
  for (std::size_t jj = 0; jj < J; ++jj) acc[jj] = L::zero();
  const float* b = bt + j0 * k;
  for (std::size_t c = 0; c < k; ++c) {
    const typename L::V col = L::load(at + c * W);
    for (std::size_t jj = 0; jj < J; ++jj) {
      acc[jj] = L::mul_add(acc[jj], col, b[jj * k + c]);
    }
  }
  float tile[J][W];
  for (std::size_t jj = 0; jj < J; ++jj) L::store(tile[jj], acc[jj]);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t jj = 0; jj < J; ++jj) {
      out[r * out_stride + j0 + jj] = tile[jj][r];
    }
  }
}

/// Rows [i0, i0 + rows) of out = a · btᵀ, rows <= L::kWidth.  The rows are
/// transposed once into `at` (zero-padded lanes are computed and dropped);
/// bt is then streamed row by row, in place, and every bt(j, c) is
/// broadcast against column c of the group.  Lane r of vocab row j thus
/// evaluates ((0 + a(r,0)·bt(j,0)) + a(r,1)·bt(j,1)) + … in c order: the
/// serial dot product, whichever group and policy the row lands in.
template <class L>
void head_rows(const Tensor& a, std::size_t i0, std::size_t rows,
               const Tensor& bt, Tensor& out, std::vector<float>& at) {
  constexpr std::size_t W = L::kWidth;
  constexpr std::size_t kInFlight = 8;  // vocab rows per block
  const std::size_t k = a.cols(), n = bt.rows();
  at.assign(k * W, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* a_row = a.data() + (i0 + r) * k;
    for (std::size_t c = 0; c < k; ++c) at[c * W + r] = a_row[c];
  }
  float* out_rows = out.data() + i0 * n;
  std::size_t j = 0;
  for (; j + kInFlight <= n; j += kInFlight) {
    head_block<L, kInFlight>(at.data(), bt.data(), k, j, rows, out_rows, n);
  }
  for (; j < n; ++j) {
    head_block<L, 1>(at.data(), bt.data(), k, j, rows, out_rows, n);
  }
}

/// out[M,N] = a[M,K] · btᵀ in groups of L::kWidth rows.
template <class L>
void transposed_b_lanes(const Tensor& a, const Tensor& bt, Tensor& out) {
  LMPEEL_CHECK(a.cols() == bt.cols());
  LMPEEL_CHECK(out.rows() == a.rows() && out.cols() == bt.rows());
  std::vector<float> at;
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += L::kWidth) {
    head_rows<L>(a, i0, std::min(L::kWidth, a.rows() - i0), bt, out, at);
  }
}

}  // namespace

void matmul_transposed_b(const Tensor& a, const Tensor& bt, Tensor& out) {
#if defined(__AVX2__)
  transposed_b_lanes<Lanes8>(a, bt, out);
#else
  transposed_b_lanes<PortableLanes>(a, bt, out);
#endif
}

namespace detail {
void matmul_transposed_b_portable(const Tensor& a, const Tensor& bt,
                                  Tensor& out) {
  transposed_b_lanes<PortableLanes>(a, bt, out);
}
}  // namespace detail

void matmul_grad_a(const Tensor& grad, const Tensor& b, Tensor& da) {
  LMPEEL_CHECK(grad.cols() == b.cols());
  LMPEEL_CHECK(da.rows() == grad.rows() && da.cols() == b.rows());
  const std::size_t m = grad.rows(), n = grad.cols(), k = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const float* g_row = grad.data() + i * n;
    float* da_row = da.data() + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* b_row = b.data() + kk * n;
      float acc = 0.0f;
      for (std::size_t j = 0; j < n; ++j) acc += g_row[j] * b_row[j];
      da_row[kk] += acc;
    }
  }
}

void matmul_grad_b(const Tensor& a, const Tensor& grad, Tensor& db) {
  LMPEEL_CHECK(a.rows() == grad.rows());
  LMPEEL_CHECK(db.rows() == a.cols() && db.cols() == grad.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = grad.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a.data() + i * k;
    const float* g_row = grad.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a_row[kk];
      if (aik == 0.0f) continue;
      float* db_row = db.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) db_row[j] += aik * g_row[j];
    }
  }
}

void layer_norm(const Tensor& x, std::span<const float> gamma,
                std::span<const float> beta, Tensor& y,
                LayerNormCache& cache) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(gamma.size() == cols && beta.size() == cols);
  LMPEEL_CHECK(y.rows() == rows && y.cols() == cols);
  cache.mean.resize(rows);
  cache.inv_std.resize(rows);
  constexpr float kEps = 1e-5f;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x.data() + r * cols;
    float mean = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) mean += xr[c];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      var += (xr[c] - mean) * (xr[c] - mean);
    }
    var /= static_cast<float>(cols);
    const float inv_std = 1.0f / std::sqrt(var + kEps);
    cache.mean[r] = mean;
    cache.inv_std[r] = inv_std;
    float* yr = y.data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      yr[c] = (xr[c] - mean) * inv_std * gamma[c] + beta[c];
    }
  }
}

void layer_norm_backward(const Tensor& x, std::span<const float> gamma,
                         const Tensor& dy, const LayerNormCache& cache,
                         Tensor& dx, std::span<float> dgamma,
                         std::span<float> dbeta) {
  const std::size_t rows = x.rows(), cols = x.cols();
  LMPEEL_CHECK(dx.rows() == rows && dx.cols() == cols);
  const auto n = static_cast<float>(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x.data() + r * cols;
    const float* dyr = dy.data() + r * cols;
    float* dxr = dx.data() + r * cols;
    const float mean = cache.mean[r];
    const float inv_std = cache.inv_std[r];

    // x_hat = (x - mean) * inv_std;  dy/dx via the standard two-reduction
    // layer-norm backward.
    float sum_dy_g = 0.0f, sum_dy_g_xhat = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - mean) * inv_std;
      const float dyg = dyr[c] * gamma[c];
      sum_dy_g += dyg;
      sum_dy_g_xhat += dyg * xhat;
      dgamma[c] += dyr[c] * xhat;
      dbeta[c] += dyr[c];
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const float xhat = (xr[c] - mean) * inv_std;
      const float dyg = dyr[c] * gamma[c];
      dxr[c] += inv_std * (dyg - sum_dy_g / n - xhat * sum_dy_g_xhat / n);
    }
  }
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

void add_into(Tensor& dst, const Tensor& src) {
  LMPEEL_CHECK(dst.size() == src.size());
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.size(); ++i) d[i] += s[i];
}

void gelu(const Tensor& x, Tensor& y) {
  LMPEEL_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  const float* xs = x.data();
  float* ys = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = xs[i];
    const float t = std::tanh(kGeluC * (v + 0.044715f * v * v * v));
    ys[i] = 0.5f * v * (1.0f + t);
  }
}

void gelu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  LMPEEL_CHECK(x.size() == dy.size() && x.size() == dx.size());
  const float* xs = x.data();
  const float* dys = dy.data();
  float* dxs = dx.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = xs[i];
    const float u = kGeluC * (v + 0.044715f * v * v * v);
    const float t = std::tanh(u);
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
    const float grad = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
    dxs[i] += dys[i] * grad;
  }
}

void softmax_rows(Tensor& x) {
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    float hi = row[0];
    for (std::size_t c = 1; c < x.cols(); ++c) hi = std::max(hi, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      row[c] = std::exp(row[c] - hi);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] *= inv;
  }
}

}  // namespace lmpeel::lm
