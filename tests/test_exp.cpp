// The attention softmax's exp (lm::detail::expf_scalar) against the host
// libm's expf on every float in [-inf, +0]: every input a softmax can feed
// it (x - max <= 0) apart from NaN.  The twin recomputes glibc's FMA
// variant, so the check runs only where that is the libm in use; anywhere
// else it skips and says why.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "glibc_fma_expf.hpp"
#include "lm/attention.hpp"
#include "util/thread_pool.hpp"

namespace lmpeel::lm {
namespace {

TEST(Exp, ScalarMatchesLibmExhaustively) {
  const std::string why = not_glibc_fma_expf();
  if (!why.empty()) GTEST_SKIP() << why;
  // Called through a volatile pointer so the compiler can neither fold nor
  // vectorize the libm call.
  float (*volatile libm_expf)(float) = ::expf;

  // Bit patterns 0x80000000 (-0) .. 0xff800000 (-inf), then +0.
  constexpr std::uint64_t kFirst = 0x80000000u, kLast = 0xff800000u;
  constexpr std::uint64_t kCount = kLast - kFirst + 1;
  constexpr std::uint64_t kChunks = 1024;
  std::atomic<std::uint64_t> checked{0}, mismatches{0};
  std::atomic<std::uint32_t> first_bad{0};
  util::parallel_for(util::global_pool(), 0, kChunks, [&](std::size_t chunk) {
    const std::uint64_t lo = kFirst + kCount * chunk / kChunks;
    const std::uint64_t hi = kFirst + kCount * (chunk + 1) / kChunks;
    std::uint64_t bad = 0;
    for (std::uint64_t b = lo; b < hi; ++b) {
      const float x = std::bit_cast<float>(static_cast<std::uint32_t>(b));
      if (std::bit_cast<std::uint32_t>(detail::expf_scalar(x)) !=
          std::bit_cast<std::uint32_t>(libm_expf(x))) {
        if (bad++ == 0) first_bad = static_cast<std::uint32_t>(b);
      }
    }
    checked += hi - lo;
    mismatches += bad;
  });
  const bool zero_ok = detail::expf_scalar(0.0f) == libm_expf(0.0f);
  checked += 1;
  EXPECT_EQ(checked.load(), 2139095042u);
  EXPECT_TRUE(zero_ok);
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatching input bits 0x" << std::hex << first_bad.load();
  std::printf("checked %llu floats, %llu mismatches\n",
              static_cast<unsigned long long>(checked.load()),
              static_cast<unsigned long long>(mismatches.load()));
}

}  // namespace
}  // namespace lmpeel::lm
