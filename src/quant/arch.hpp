// Runtime CPU-arch dispatch for the quantized kernels (DESIGN.md §17).
//
// The kernel TUs (kernels_{scalar,avx2,avx512}.cpp) are each compiled with
// their own -m flags, mirroring the per-file AVX-512 setup for
// lm/tensor.cpp; this header picks which table to use.  The AVX-512 tier
// includes VNNI (its int8 kernel is VPDPBUSD), so an AVX-512 host without
// VNNI gets the AVX2 tier for both formats.  The choice is made once per
// process from CPUID (`__builtin_cpu_supports`), overridable with
// LMPEEL_FORCE_ARCH=scalar|avx2|avx512 so the scalar fallback stays
// test-covered on wide machines and perf runs can pin a lane width.
#pragma once

namespace lmpeel::quant {

enum class Arch { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar" / "avx2" / "avx512" — bench-row and report labels.
const char* arch_name(Arch arch);

/// True when `arch` was both compiled in (the toolchain accepted its -m
/// flags) and the running CPU reports the needed features (AVX2 also needs
/// F16C for the fp16 kernels; AVX-512 needs F+BW+VL+VNNI, so a host
/// without VNNI runs both the int8 and the fp16 kernels at AVX2).
bool arch_supported(Arch arch);

/// Widest supported arch on this machine (kScalar is always supported).
Arch best_supported_arch();

/// The process-wide dispatched arch: best_supported_arch() unless
/// LMPEEL_FORCE_ARCH overrides it.  Decided once on first call (the env
/// var is read exactly once); forcing an unsupported or unknown arch
/// CHECK-fails rather than silently running a different lane width.
/// Publishes the `quant.dispatch_arch` gauge.
Arch dispatched_arch();

}  // namespace lmpeel::quant
