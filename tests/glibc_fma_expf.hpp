// Whether the host libm's expf is the one lm::detail::expf_scalar
// recomputes: glibc's FMA variant (glibc 2.27's expf, which its ifunc
// selects on an x86-64 CPU with FMA and AVX2).
#pragma once

#include <cstdio>
#include <string>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

namespace lmpeel::lm {

/// Empty when the host's expf is glibc's FMA variant, else the reason it
/// is not.
inline std::string not_glibc_fma_expf() {
#if defined(__GLIBC__) && defined(__x86_64__)
  const char* version = gnu_get_libc_version();
  int major = 0, minor = 0;
  if (std::sscanf(version, "%d.%d", &major, &minor) != 2 ||
      major * 1000 + minor < 2027) {
    return std::string("glibc ") + version + " predates the 2.27 expf";
  }
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) {
    return "this CPU lacks FMA or AVX2, so glibc runs its non-FMA expf";
  }
  return "";
#else
  return "the libm is not glibc on x86-64";
#endif
}

}  // namespace lmpeel::lm
