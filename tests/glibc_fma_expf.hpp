// Whether the host libm's expf and exp are the ones lm::detail::expf_scalar
// and lm::detail::exp_scalar recompute: glibc's FMA variants (glibc 2.27's
// expf and 2.28's exp, which its ifunc selects on an x86-64 CPU with FMA
// and AVX2).
#pragma once

#include <cstdio>
#include <string>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

namespace lmpeel::lm {

/// Empty when the host's `name` is the FMA variant of the glibc 2.`since`
/// implementation, else the reason it is not.
inline std::string not_glibc_fma(const char* name, int since) {
#if defined(__GLIBC__) && defined(__x86_64__)
  const char* version = gnu_get_libc_version();
  int major = 0, minor = 0;
  if (std::sscanf(version, "%d.%d", &major, &minor) != 2 ||
      major * 1000 + minor < 2000 + since) {
    return std::string("glibc ") + version + " predates the 2." +
           std::to_string(since) + " " + name;
  }
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) {
    return std::string("this CPU lacks FMA or AVX2, so glibc runs its "
                       "non-FMA ") + name;
  }
  return "";
#else
  (void)name;
  (void)since;
  return "the libm is not glibc on x86-64";
#endif
}

inline std::string not_glibc_fma_expf() { return not_glibc_fma("expf", 27); }
inline std::string not_glibc_fma_exp() { return not_glibc_fma("exp", 28); }

}  // namespace lmpeel::lm
