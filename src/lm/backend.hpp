// The KV-cached decoding seam (DESIGN.md §17).
//
// serve::TransformerBatchDecoder and cache::PrefixCache only ever touch a
// model through this surface: its shape (config), one-shot prefill,
// incremental prefill_from, and the batched single-token decode step.
// TransformerLm (f32, trainable) and quant::QuantizedLm (int8/fp16,
// inference-only) both implement it over the one layer loop in
// lm/decoder_body.hpp, so the whole serve / prefix-cache / paged-KV /
// recovery stack runs against either backend unchanged — KV rows are f32
// in every backend, which is what keeps the prefix-cache and spill
// bit-identity guarantees weight-format-independent.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "lm/kv_cache.hpp"
#include "lm/tensor.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

struct TransformerConfig {
  int vocab = 0;
  int d_model = 64;
  int n_head = 4;
  int n_layer = 2;
  int max_seq = 256;
};

class KvBackend {
 public:
  virtual ~KvBackend() = default;

  /// Shape of the decoder this backend serves (vocab, d_model, layers,
  /// max_seq) — the serve layer derives bytes-per-token and admission
  /// limits from it.
  virtual const TransformerConfig& config() const noexcept = 0;

  virtual int vocab_size() const = 0;

  /// No backend has seeded stochasticity and nothing in the library calls
  /// this.  It stays declared only because the benchmark's timing wrapper
  /// overrides it, and goes with the next change to that benchmark.
  virtual void set_seed(std::uint64_t /*seed*/) {}

  /// Seeds an *empty* cache with the key/value pairs of every position of
  /// `tokens`, returning the logits after the last token in `out`
  /// (vocab_size() floats, or empty for none): prefill_from() on a cache
  /// CHECKed empty.
  virtual void prefill(KvCache& cache, std::span<const int> tokens,
                       std::span<float> out) {
    LMPEEL_CHECK_MSG(cache.length() == 0, "prefill requires an empty cache");
    prefill_from(cache, tokens, out);
  }

  /// Extends a cache holding cache.length() positions (possibly none) with
  /// `suffix` (non-empty), returning the logits after the last suffix
  /// token in `out` (vocab_size() floats).  An empty `out` means "no
  /// logits": the K/V rows are appended exactly as with a real `out`, and
  /// the output head is skipped — for prompt chunks that are not the last.
  virtual void prefill_from(KvCache& cache, std::span<const int> suffix,
                            std::span<float> out) = 0;

  /// Advances caches.size() independent sequences by one token each in a
  /// single batched step; row i of `logits_out` ([B, vocab]) receives the
  /// logits following tokens[i].
  virtual void decode_batch(std::span<KvCache* const> caches,
                            std::span<const int> tokens,
                            Tensor& logits_out) = 0;

  /// Short identifier for bench rows and reports ("f32", "int8", "fp16").
  virtual std::string backend_name() const = 0;
};

}  // namespace lmpeel::lm
