// Inference-only quantized transformer backend (DESIGN.md §17).
//
// Built from a trained (or seeded) lm::TransformerLm: the four big weight
// matrices per layer and the tied token embedding are re-stored as
// per-tensor symmetric int8 (or fp16), while biases, layer-norm params,
// positional embeddings — and crucially every KV row — stay f32.  The
// class is a weight pack plus a kernel choice: its lm::WeightOps calls
// plug those into the one layer loop the f32 model also runs
// (lm/decoder_body.hpp), so both backends execute the same graph.
// Implements lm::KvBackend, so the serve engine, prefix cache, paged pool
// and recovery stack run against it unchanged; implements
// lm::LanguageModel, so lm::generate and the LLAMBO tuners can score
// through it for the A/B harness.
//
// Correctness bar: "conclusions, not bits" (ROADMAP item 1).  Logits drift
// from the f32 model by quantization error; the eval/quant_ab harness
// bounds that drift and asserts campaign conclusions are unchanged.  What
// *is* bit-exact: the int8 path produces identical logits on every CPU
// arch (exact int32 kernels + shared float pre/post code), and cached
// prefix reuse (prefill_from after copy_prefix) matches a full prefill
// because every kernel here is row-independent, same as the f32 model.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "guard/budget.hpp"
#include "lm/backend.hpp"
#include "lm/decoder_body.hpp"
#include "lm/language_model.hpp"
#include "lm/transformer.hpp"
#include "quant/arch.hpp"
#include "quant/qtensor.hpp"

namespace lmpeel::quant {

enum class WeightFormat { kInt8, kFp16 };

const char* format_name(WeightFormat format);

class QuantizedLm final : public lm::LanguageModel,
                          public lm::KvBackend,
                          private lm::WeightOps {
 public:
  /// Quantizes `source`'s weights at the given format, running its kernels
  /// on `arch` (defaults to the CPUID-dispatched best).  `source` is read
  /// once during construction and not referenced afterwards.
  explicit QuantizedLm(lm::TransformerLm& source,
                       WeightFormat format = WeightFormat::kInt8,
                       Arch arch = dispatched_arch());
  ~QuantizedLm() override;

  QuantizedLm(const QuantizedLm&) = delete;
  QuantizedLm& operator=(const QuantizedLm&) = delete;

  // ---- LanguageModel ----------------------------------------------------
  int vocab_size() const override { return config_.vocab; }
  /// Deterministic: `seed` is ignored.
  void next_logits(std::span<const int> context, std::uint64_t seed,
                   std::span<float> out) override;
  std::string name() const override;

  // ---- KvBackend --------------------------------------------------------
  const lm::TransformerConfig& config() const noexcept override {
    return config_;
  }
  /// The shared layer loop (lm/decoder_body.hpp) over this model's
  /// int8/fp16 weight kernels; prefill is KvBackend's default.
  void prefill_from(lm::KvCache& cache, std::span<const int> suffix,
                    std::span<float> out) override;
  void decode_batch(std::span<lm::KvCache* const> caches,
                    std::span<const int> tokens,
                    lm::Tensor& logits_out) override;
  std::string backend_name() const override { return format_name(format_); }

  // ---- introspection (quant-check, benches) -----------------------------
  Arch arch() const noexcept { return arch_; }
  WeightFormat format() const noexcept { return format_; }

  /// Bytes of quantized + residual-f32 weight storage this model holds.
  std::size_t weight_bytes() const noexcept { return weight_bytes_; }
  /// What the same parameters cost in f32 (the ratio is the ISSUE gate).
  std::size_t f32_weight_bytes() const noexcept { return f32_bytes_; }

  /// Charges weight_bytes() to `budget` (null detaches) so the memory
  /// saving is measured by guard accounting, not assumed.
  void bind_weight_budget(guard::Budget* budget);

  struct TensorReport {
    std::string name;
    std::size_t rows = 0, cols = 0;
    float scale = 0.0f;  ///< 0 for fp16 tensors (no per-tensor scale)
    float max_abs_error = 0.0f;
    double rms_error = 0.0;
    std::size_t bytes = 0;
  };
  /// Per-quantized-tensor scales and quantization-error summary.
  std::vector<TensorReport> tensor_reports() const;

 private:
  static constexpr std::size_t kProjections = 4;
  /// One block; the projection arrays are indexed by lm::Proj.
  struct QLayer {
    lm::Tensor ln1_g, ln1_b, ln2_g, ln2_b;
    std::array<QTensor, kProjections> q;  // int8 format
    std::array<HTensor, kProjections> h;  // fp16 format
    std::array<lm::Tensor, kProjections> bias;
  };

  // ---- lm::WeightOps: the int8/fp16 kernels of the shared body ---------
  /// Token + positional embedding (dequantized token row + f32 pos row).
  void embed(int id, std::size_t pos, float* row) const override;
  /// out = act · W + b through whichever format is active.
  void project(std::size_t layer, lm::Proj proj, const lm::Tensor& act,
               lm::Tensor& out) const override;
  /// Tied output head over the quantized embedding for `f` ([m, d]).
  void head(const lm::Tensor& f, lm::Tensor& logits) const override;
  Norm norm(std::size_t layer, bool second) const override;

  lm::TransformerConfig config_;
  WeightFormat format_;
  Arch arch_;
  const KernelSet* kernels_;
  lm::Tensor pos_emb_, lnf_g_, lnf_b_;
  QTensor tok_emb_q_;
  HTensor tok_emb_h_;
  std::vector<QLayer> layers_;
  std::size_t weight_bytes_ = 0;
  std::size_t f32_bytes_ = 0;
  guard::Budget* budget_ = nullptr;
};

}  // namespace lmpeel::quant
