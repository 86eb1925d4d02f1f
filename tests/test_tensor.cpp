#include "lm/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace lmpeel::lm {
namespace {

TEST(Tensor, ShapeAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.row(1)[2], 5.0f);
  t.zero();
  EXPECT_FLOAT_EQ(t.at(1, 2), 0.0f);
}

TEST(Matmul, MatchesHandComputed) {
  Tensor a(2, 3), b(3, 2), out(2, 2);
  const float av[] = {1, 2, 3, 4, 5, 6};
  const float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  matmul(a, b, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 154.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  Tensor a(2, 3), b(2, 2), out(2, 2);
  EXPECT_THROW(matmul(a, b, out), std::runtime_error);
}

// The tied head's contract: out(i, j) is the serial dot product
// ((0 + a(i,0)·bt(j,0)) + a(i,1)·bt(j,1)) + … for every row count, so the
// batched head equals a single-row head bit for bit.  Computed here with
// plain scalar code as the reference.
float serial_dot(const Tensor& a, std::size_t i, const Tensor& bt,
                 std::size_t j) {
  float acc = 0.0f;
  for (std::size_t c = 0; c < a.cols(); ++c) acc += a.at(i, c) * bt.at(j, c);
  return acc;
}

// Bit equality, except that any NaN matches any NaN: which operand's
// payload a NaN result carries is not part of the contract.
bool same_float(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

TEST(Matmul, TransposedBBitIdenticalToSerialDot) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= 17; ++m) ms.push_back(m);
  ms.push_back(33);
  util::Rng rng(11);
  std::size_t nan_outputs = 0;
  for (const std::size_t m : ms) {
    for (const std::size_t n : {1u, 15u, 16u, 17u, 1761u}) {
      for (const std::size_t k : {1u, 7u, 128u}) {
        Tensor a(m, k), bt(n, k);
        a.randomize(rng, 1.0f);
        bt.randomize(rng, 1.0f);
        // Row 0 of a is all -0.0: every product is a signed zero, and the
        // serial dot still starts from +0.0.
        std::fill_n(a.data(), k, -0.0f);
        if (m > 1) a.at(m - 1, k / 2) = kInf;  // ±inf, or NaN against a 0
        bt.at(n - 1, 0) = kNan;
        if (n > 2) bt.at(1, k - 1) = 0.0f;  // inf · 0
        Tensor simd(m, n), portable(m, n);
        matmul_transposed_b(a, bt, simd);
        detail::matmul_transposed_b_portable(a, bt, portable);
        if (n > 1) {
          EXPECT_EQ(std::bit_cast<std::uint32_t>(simd.at(0, 0)), 0u);
        }
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const float want = serial_dot(a, i, bt, j);
            nan_outputs += std::isnan(want) ? 1 : 0;
            ASSERT_TRUE(same_float(simd.at(i, j), want))
                << "m=" << m << " n=" << n << " k=" << k << " at (" << i
                << ", " << j << "): " << simd.at(i, j) << " vs " << want;
            ASSERT_TRUE(same_float(portable.at(i, j), want))
                << "portable m=" << m << " n=" << n << " k=" << k << " at ("
                << i << ", " << j << ")";
          }
        }
      }
    }
  }
  EXPECT_GT(nan_outputs, 0u);  // the special values really reached outputs
}

TEST(MatmulGrads, ConsistentWithFiniteDifferences) {
  // d/dA sum(A*B) and d/dB sum(A*B) against numeric perturbation.
  util::Rng rng(1);
  Tensor a(3, 4), b(4, 2), out(3, 2);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  matmul(a, b, out);

  // loss = sum(out); dOut = ones.
  Tensor dout(3, 2);
  for (std::size_t i = 0; i < dout.size(); ++i) dout.data()[i] = 1.0f;
  Tensor da(3, 4), db(4, 2);
  matmul_grad_a(dout, b, da);
  matmul_grad_b(a, dout, db);

  const float eps = 1e-2f;
  auto loss = [&] {
    Tensor tmp(3, 2);
    matmul(a, b, tmp);
    float s = 0.0f;
    for (std::size_t i = 0; i < tmp.size(); ++i) s += tmp.data()[i];
    return s;
  };
  for (const std::size_t i : {0u, 5u, 11u}) {
    const float orig = a.data()[i];
    a.data()[i] = orig + eps;
    const float up = loss();
    a.data()[i] = orig - eps;
    const float down = loss();
    a.data()[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), da.data()[i], 1e-2f);
  }
  for (const std::size_t i : {0u, 3u, 7u}) {
    const float orig = b.data()[i];
    b.data()[i] = orig + eps;
    const float up = loss();
    b.data()[i] = orig - eps;
    const float down = loss();
    b.data()[i] = orig;
    EXPECT_NEAR((up - down) / (2 * eps), db.data()[i], 1e-2f);
  }
}

TEST(LayerNorm, NormalisesRows) {
  Tensor x(2, 4), y(2, 4);
  const float xv[] = {1, 2, 3, 4, 10, 10, 10, 10};
  std::copy(xv, xv + 8, x.data());
  std::vector<float> gamma(4, 1.0f), beta(4, 0.0f);
  LayerNormCache cache;
  layer_norm(x, gamma, beta, y, cache);
  // Row 0: mean 2.5, normalised values symmetric around 0.
  float mean = 0.0f, var = 0.0f;
  for (std::size_t c = 0; c < 4; ++c) mean += y.at(0, c);
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  for (std::size_t c = 0; c < 4; ++c) var += y.at(0, c) * y.at(0, c);
  EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  // Constant row maps to beta (zero).
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(y.at(1, c), 0.0f, 1e-2f);
}

TEST(LayerNorm, GammaBetaApplied) {
  Tensor x(1, 2), y(1, 2);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 1.0f;
  std::vector<float> gamma{2.0f, 2.0f}, beta{1.0f, 1.0f};
  LayerNormCache cache;
  layer_norm(x, gamma, beta, y, cache);
  EXPECT_NEAR(y.at(0, 0), 1.0f - 2.0f, 1e-4f);
  EXPECT_NEAR(y.at(0, 1), 1.0f + 2.0f, 1e-4f);
}

TEST(Gelu, KnownPointsAndMonotoneRegion) {
  Tensor x(1, 3), y(1, 3);
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 10.0f;
  x.at(0, 2) = -10.0f;
  gelu(x, y);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at(0, 1), 10.0f, 1e-3f);
  EXPECT_NEAR(y.at(0, 2), 0.0f, 1e-3f);
}

TEST(GeluBackward, MatchesFiniteDifference) {
  Tensor x(1, 5), y(1, 5), dy(1, 5), dx(1, 5);
  const float xv[] = {-2.0f, -0.5f, 0.0f, 0.7f, 2.0f};
  std::copy(xv, xv + 5, x.data());
  for (std::size_t i = 0; i < 5; ++i) dy.data()[i] = 1.0f;
  gelu_backward(x, dy, dx);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < 5; ++i) {
    Tensor xp = x, xm = x, yp(1, 5), ym(1, 5);
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    gelu(xp, yp);
    gelu(xm, ym);
    const float fd = (yp.data()[i] - ym.data()[i]) / (2 * eps);
    EXPECT_NEAR(fd, dx.data()[i], 1e-3f);
  }
}

TEST(SoftmaxRows, RowsSumToOne) {
  Tensor x(2, 3);
  const float xv[] = {1, 2, 3, -1, 0, 1};
  std::copy(xv, xv + 6, x.data());
  softmax_rows(x);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) {
      sum += x.at(r, c);
      EXPECT_GT(x.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(x.at(0, 2), x.at(0, 1));
}

TEST(Randomize, ApproximateMoments) {
  util::Rng rng(5);
  Tensor t(100, 100);
  t.randomize(rng, 0.5f);
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t.data()[i];
    sq += static_cast<double>(t.data()[i]) * t.data()[i];
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.01);
  EXPECT_NEAR(sq / t.size(), 0.25, 0.01);
}

}  // namespace
}  // namespace lmpeel::lm
