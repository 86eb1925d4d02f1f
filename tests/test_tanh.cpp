// GELU's tanh (lm::detail::tanhf_scalar and its lane kernel) against the
// host libm's tanhf on every non-negative float, +0 through +inf, bit for
// bit, and odd symmetry on a sample of negative floats.  The twin
// recomputes glibc's fdlibm tanhf, so the check runs only where that is
// the libm in use; anywhere else it skips and says why.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "glibc_tanhf.hpp"
#include "lm/tensor.hpp"
#include "util/thread_pool.hpp"

namespace lmpeel::lm {
namespace {

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(Tanh, ScalarAndLanesMatchLibmOnEveryNonNegativeFloat) {
  const std::string why = not_glibc_fdlibm_tanhf();
  if (!why.empty()) GTEST_SKIP() << why;
  // Called through a volatile pointer so the compiler can neither fold nor
  // vectorize the libm call.
  float (*volatile libm_tanhf)(float) = ::tanhf;

  // Bit patterns 0x00000000 (+0) .. 0x7f7fffff (FLT_MAX) in blocks whose
  // size 8 divides, so every input goes through the lane kernel as part of
  // a full group, never its scalar tail.
  constexpr std::size_t kBlock = 4096;
  constexpr std::uint64_t kBlocks = 0x7f800000u / kBlock;
  constexpr std::uint64_t kChunks = 1024;
  std::atomic<std::uint64_t> checked{0}, scalar_bad{0}, lane_bad{0};
  std::atomic<std::uint32_t> first_scalar{0}, first_lane{0};
  const auto check = [&](const float* x, std::size_t n, float* lanes,
                         std::uint64_t& s_bad, std::uint64_t& l_bad) {
    detail::tanhf_lanes(x, n, lanes);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t want = bits(libm_tanhf(x[i]));
      if (bits(detail::tanhf_scalar(x[i])) != want && s_bad++ == 0) {
        first_scalar = bits(x[i]);
      }
      if (bits(lanes[i]) != want && l_bad++ == 0) first_lane = bits(x[i]);
    }
  };
  util::parallel_for(util::global_pool(), 0, kChunks, [&](std::size_t chunk) {
    std::vector<float> x(kBlock), lanes(kBlock);
    std::uint64_t s_bad = 0, l_bad = 0;
    for (std::uint64_t blk = kBlocks * chunk / kChunks;
         blk < kBlocks * (chunk + 1) / kChunks; ++blk) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        x[i] = std::bit_cast<float>(
            static_cast<std::uint32_t>(blk * kBlock + i));
      }
      check(x.data(), kBlock, lanes.data(), s_bad, l_bad);
      checked += kBlock;
    }
    scalar_bad += s_bad;
    lane_bad += l_bad;
  });
  // +inf, as a full group of 8 copies: one input.
  std::vector<float> inf(8, INFINITY), lanes(8);
  std::uint64_t s_bad = 0, l_bad = 0;
  check(inf.data(), inf.size(), lanes.data(), s_bad, l_bad);
  checked += 1;
  scalar_bad += s_bad != 0;
  lane_bad += l_bad != 0;
  EXPECT_EQ(checked.load(), 0x7f800001u);
  EXPECT_EQ(scalar_bad.load(), 0u)
      << "first mismatching input bits 0x" << std::hex << first_scalar.load();
  EXPECT_EQ(lane_bad.load(), 0u)
      << "first mismatching input bits 0x" << std::hex << first_lane.load();
  std::printf("checked %llu floats, %llu scalar and %llu lane mismatches\n",
              static_cast<unsigned long long>(checked.load()),
              static_cast<unsigned long long>(scalar_bad.load()),
              static_cast<unsigned long long>(lane_bad.load()));
}

TEST(Tanh, OddOnSampledNegativeFloats) {
  const std::string why = not_glibc_fdlibm_tanhf();
  if (!why.empty()) GTEST_SKIP() << why;
  float (*volatile libm_tanhf)(float) = ::tanhf;
  // Every 4099th pattern of -0 .. -inf, plus -inf itself.
  std::vector<float> neg;
  for (std::uint64_t b = 0x80000000u; b < 0xff800000u; b += 4099) {
    neg.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(b)));
  }
  neg.push_back(-INFINITY);
  std::vector<float> lanes(neg.size());
  detail::tanhf_lanes(neg.data(), neg.size(), lanes.data());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < neg.size(); ++i) {
    const std::uint32_t want =
        bits(detail::tanhf_scalar(-neg[i])) ^ 0x80000000u;
    if (bits(detail::tanhf_scalar(neg[i])) != want ||
        bits(lanes[i]) != want || bits(libm_tanhf(neg[i])) != want) {
      if (bad++ == 0) ADD_FAILURE() << "first asymmetric input bits 0x"
                                    << std::hex << bits(neg[i]);
    }
  }
  EXPECT_EQ(bad, 0u);
  std::printf("checked %zu negative floats, %zu asymmetric\n", neg.size(),
              bad);
}

}  // namespace
}  // namespace lmpeel::lm
