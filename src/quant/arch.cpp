#include "quant/arch.hpp"

#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace lmpeel::quant {

namespace {

bool compiled_in(Arch arch) {
  switch (arch) {
    case Arch::kScalar:
      return true;
    case Arch::kAvx2:
#ifdef LMPEEL_QUANT_HAS_AVX2
      return true;
#else
      return false;
#endif
    case Arch::kAvx512:
#ifdef LMPEEL_QUANT_HAS_AVX512
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool cpu_supports(Arch arch) {
#if defined(__x86_64__) || defined(__i386__)
  switch (arch) {
    case Arch::kScalar:
      return true;
    case Arch::kAvx2:
      // F16C is required by the fp16 dequant kernels in the AVX2 table.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
    case Arch::kAvx512:
      // VNNI is required by the int8 kernel (VPDPBUSD).
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512vnni");
  }
  return false;
#else
  return arch == Arch::kScalar;
#endif
}

Arch decide() {
  Arch arch = best_supported_arch();
  if (const char* forced = std::getenv("LMPEEL_FORCE_ARCH");
      forced != nullptr && *forced != '\0') {
    const std::string name(forced);
    if (name == "scalar") {
      arch = Arch::kScalar;
    } else if (name == "avx2") {
      arch = Arch::kAvx2;
    } else if (name == "avx512") {
      arch = Arch::kAvx512;
    } else {
      LMPEEL_CHECK_MSG(false,
                       "LMPEEL_FORCE_ARCH must be scalar|avx2|avx512");
    }
    LMPEEL_CHECK_MSG(arch_supported(arch),
                     "LMPEEL_FORCE_ARCH names an arch this machine "
                     "cannot run");
  }
  return arch;
}

}  // namespace

const char* arch_name(Arch arch) {
  switch (arch) {
    case Arch::kScalar:
      return "scalar";
    case Arch::kAvx2:
      return "avx2";
    case Arch::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool arch_supported(Arch arch) {
  return compiled_in(arch) && cpu_supports(arch);
}

Arch best_supported_arch() {
  if (arch_supported(Arch::kAvx512)) return Arch::kAvx512;
  if (arch_supported(Arch::kAvx2)) return Arch::kAvx2;
  return Arch::kScalar;
}

Arch dispatched_arch() {
  static const Arch arch = decide();
  // Re-publish on every call: the metrics registry may have been reset
  // since the first, and the gauge must still name the lane in its dump.
  obs::Registry::global()
      .gauge("quant.dispatch_arch")
      .set(static_cast<double>(static_cast<int>(arch)));
  return arch;
}

}  // namespace lmpeel::quant
