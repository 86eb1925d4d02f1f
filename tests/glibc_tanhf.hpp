// Whether the host libm's tanhf is the one lm::detail::tanhf_scalar
// recomputes: fdlibm's s_tanhf.c over s_expm1f.c, which glibc 2.36 builds
// as plain functions on x86-64 (no ifunc, so no CPU variant).
#pragma once

#include <cstdio>
#include <string>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

namespace lmpeel::lm {

/// Empty when the host's tanhf is glibc's fdlibm one, else the reason it
/// may not be.
inline std::string not_glibc_fdlibm_tanhf() {
#if defined(__GLIBC__) && defined(__x86_64__)
  const char* version = gnu_get_libc_version();
  int major = 0, minor = 0;
  if (std::sscanf(version, "%d.%d", &major, &minor) != 2) {
    return std::string("unparsed glibc version ") + version;
  }
  const int v = major * 1000 + minor;
  if (v < 2028 || v > 2040) {
    // The twin was checked against 2.36.  Releases from 2.41 on import
    // correctly rounded float functions from CORE-MATH, so they are not
    // assumed to keep fdlibm's.
    return std::string("glibc ") + version +
           " is outside the 2.28..2.40 range whose fdlibm tanhf the twin "
           "recomputes";
  }
  return "";
#else
  return "the libm is not glibc on x86-64";
#endif
}

}  // namespace lmpeel::lm
