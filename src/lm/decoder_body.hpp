// The one inference layer loop every KvBackend runs (DESIGN.md §9/§17).
//
// embed → LN → QKV → K/V append → attend_rows → out-proj → MLP → final LN →
// tied head, over rows of one cache (prefill_from) or one row per cache
// (decode_batch).  The weight format enters only through WeightOps: the f32
// TransformerLm passes its float kernels, quant::QuantizedLm its int8/fp16
// ones.  Everything else — layer norms, GELU, residual adds, the shared
// attend_rows kernel and the paged KV append — is this one copy, so the
// backends differ in their weight products and in nothing else.
#pragma once

#include <cstddef>
#include <span>

#include "lm/backend.hpp"
#include "lm/kv_cache.hpp"
#include "lm/tensor.hpp"

namespace lmpeel::lm {

/// A block's four weight matrices, in forward order.
enum class Proj { kQkv, kAttnOut, kFc1, kFc2 };

/// The weight-format half of the inference body: the three calls that read
/// a weight matrix, plus the f32 layer-norm parameters every format keeps.
class WeightOps {
 public:
  struct Norm {
    std::span<const float> gain, bias;
  };

  virtual ~WeightOps() = default;

  /// Token + positional embedding of `id` at absolute position `pos`.
  virtual void embed(int id, std::size_t pos, float* row) const = 0;
  /// out = act · W + b for projection `proj` of block `layer`.
  virtual void project(std::size_t layer, Proj proj, const Tensor& act,
                       Tensor& out) const = 0;
  /// Tied output head over the rows of `f`: logits = f · tok_embᵀ.
  virtual void head(const Tensor& f, Tensor& logits) const = 0;

  /// Pre-attention (`second` false) or pre-MLP (`second` true) norm of
  /// block `layer`; layer == n_layer is the final norm.
  virtual Norm norm(std::size_t layer, bool second) const = 0;
};

/// Extends `cache` (any length, including 0) with `suffix` (non-empty) and
/// writes the logits after its last token into `out` (vocab floats; empty
/// skips the head and writes no logits).  Only
/// the suffix is computed; every kernel is row-independent with fixed
/// accumulation order, so the result is bit-identical however a sequence
/// is split into prefill_from calls (DESIGN.md §12).
void prefill_rows(const WeightOps& ops, const TransformerConfig& config,
                  KvCache& cache, std::span<const int> suffix,
                  std::span<float> out);

/// Appends tokens[i] to caches[i] (lengths may be ragged) in one batched
/// step; row i of `logits_out` ([B, vocab]) receives the logits following
/// it.  The weight products run over the whole batch, so each matrix
/// streams through the CPU cache once per step.
void decode_rows(const WeightOps& ops, const TransformerConfig& config,
                 std::span<KvCache* const> caches,
                 std::span<const int> tokens, Tensor& logits_out);

}  // namespace lmpeel::lm
