// A real decoder-only transformer with training support (DESIGN.md S2).
//
// Pre-LayerNorm GPT-style blocks: token + learned positional embeddings,
// multi-head causal self-attention, GELU MLP (4x expansion), weight-tied
// output head.  Forward and backward passes are hand-derived (no autograd);
// gradients accumulate into per-parameter buffers consumed by AdamW.
//
// The model implements the same LanguageModel interface as InductionLm, so
// the whole evaluation pipeline (generation, traces, haystacks, tuners) can
// run against a from-scratch-trained transformer — used by the
// function-class in-context-learning experiments that motivate the paper
// (§I refs [9]–[13]).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "lm/backend.hpp"
#include "lm/decoder_body.hpp"
#include "lm/language_model.hpp"
#include "lm/tensor.hpp"

namespace lmpeel::lm {

class TransformerLm final : public LanguageModel,
                            public KvBackend,
                            private WeightOps {
 public:
  TransformerLm(TransformerConfig config, std::uint64_t seed);

  // ---- LanguageModel --------------------------------------------------
  int vocab_size() const override { return config_.vocab; }
  /// Deterministic: `seed` is ignored.
  void next_logits(std::span<const int> context, std::uint64_t seed,
                   std::span<float> out) override;
  std::string name() const override { return "transformer-lm"; }

  // ---- incremental inference (KV cache) --------------------------------
  /// The per-layer key/value cache lives at namespace scope
  /// (lm/kv_cache.hpp) so every KvBackend shares it; the nested alias keeps
  /// the original spelling working everywhere.
  using KvCache = ::lmpeel::lm::KvCache;

  /// Both run the shared layer loop (lm/decoder_body.hpp) over this
  /// model's f32 kernels.  Every kernel matches forward() operation for
  /// operation, so prefill (KvBackend's default: prefill_from on an empty
  /// cache), prefill_from at any split, and greedy decoding through
  /// decode_batch are all bit-identical to next_logits() over the same
  /// context — the serve engine's equivalence guarantee (DESIGN.md §9).
  void prefill_from(KvCache& cache, std::span<const int> suffix,
                    std::span<float> out) override;
  void decode_batch(std::span<KvCache* const> caches,
                    std::span<const int> tokens, Tensor& logits_out) override;

  // ---- training --------------------------------------------------------
  /// Forward + backward over one sequence.  `tokens` has length T+1: the
  /// model predicts tokens[t+1] from tokens[0..t].  `target_mask[t]`
  /// selects which next-token predictions contribute to the loss (size T;
  /// empty span = all positions).  Gradients accumulate; returns the mean
  /// cross-entropy over the selected targets (nats).
  double train_sequence(std::span<const int> tokens,
                        std::span<const std::uint8_t> target_mask = {});

  /// Forward-only mean cross-entropy (validation).
  double evaluate_sequence(std::span<const int> tokens,
                           std::span<const std::uint8_t> target_mask = {});

  void zero_gradients();
  std::vector<Tensor*> parameters();
  std::vector<Tensor*> gradients();
  std::size_t parameter_count() const;

  /// Binary checkpoint: config header + raw parameter data.  load() checks
  /// that the stream's config matches this model's.
  void save(std::ostream& out) const;
  void load(std::istream& in);

  const TransformerConfig& config() const noexcept override {
    return config_;
  }
  std::string backend_name() const override { return "f32"; }

 private:
  struct Layer {
    Tensor ln1_g, ln1_b, w_qkv, b_qkv, w_o, b_o;
    Tensor ln2_g, ln2_b, w_fc1, b_fc1, w_fc2, b_fc2;
    // gradient buffers, same shapes
    Tensor d_ln1_g, d_ln1_b, d_w_qkv, d_b_qkv, d_w_o, d_b_o;
    Tensor d_ln2_g, d_ln2_b, d_w_fc1, d_b_fc1, d_w_fc2, d_b_fc2;
  };

  /// Everything the backward pass needs from one forward pass.
  struct Cache;

  // ---- WeightOps: today's f32 kernels, for the shared inference body ----
  void embed(int id, std::size_t pos, float* row) const override;
  void project(std::size_t layer, Proj proj, const Tensor& act,
               Tensor& out) const override;
  void head(const Tensor& f, Tensor& logits) const override;
  Norm norm(std::size_t layer, bool second) const override;

  /// Runs the training forward pass over `ids` (length T); logits for
  /// every position land in cache.logits.  `cache` may be null for
  /// inference-only calls paired with `logits_out` for the last position —
  /// next_logits(), the serial reference the KV-cached paths are tested
  /// against.
  void forward(std::span<const int> ids, Cache* cache,
               std::span<float> last_logits_out);

  double loss_and_backward(std::span<const int> tokens,
                           std::span<const std::uint8_t> target_mask,
                           bool do_backward);

  TransformerConfig config_;
  Tensor tok_emb_, pos_emb_;      // [V,D], [S,D]
  Tensor d_tok_emb_, d_pos_emb_;
  Tensor lnf_g_, lnf_b_, d_lnf_g_, d_lnf_b_;
  std::vector<Layer> layers_;
};

}  // namespace lmpeel::lm
