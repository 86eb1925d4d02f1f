// Slot-indexed batched decoding behind the serve engine (DESIGN.md §9).
//
// The engine schedules token steps; a BatchDecoder owns the per-slot model
// state (KV caches or raw contexts) and turns a set of (slot, token) pairs
// into one batched forward.  Every decoder prefills through the same
// chunked protocol (start_chunked + prefill_chunk); wrappers derive from
// ForwardingDecoder.  Two implementations:
//
//  * TransformerBatchDecoder — a paged KvCache per slot, chunked prefill
//    via prefill_from, and KvBackend::decode_batch for the incremental
//    steps, so weights stream through the cache once per step for the
//    whole batch.
//    Large batches are additionally split across the global thread pool:
//    rows of a batched step are independent, so the split preserves the
//    bit-for-bit equivalence with sequential next_logits().
//  * GenericBatchDecoder — works with any LanguageModel by keeping a full
//    context and seed per slot and looping next_logits (no batching
//    speedup; lets the engine serve InductionLm-backed tuners).  A prefill
//    chunk only moves a cursor; the final one runs next_logits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "guard/budget.hpp"
#include "lm/backend.hpp"
#include "lm/language_model.hpp"
#include "lm/tensor.hpp"
#include "mem/page_pool.hpp"

namespace lmpeel::serve {

/// Fixed-capacity slot machine: the engine calls start_chunked() to bind a
/// request to a free slot, prefill_chunk() until the prompt is prefilled,
/// step() to advance any subset of bound slots by one token each, and
/// release() when the request retires.  Implementations must keep results
/// independent of which other slots are active in a step, and of how the
/// prompt is split into chunks.
class BatchDecoder {
 public:
  virtual ~BatchDecoder() = default;

  virtual int vocab_size() const = 0;
  /// Number of slots (the engine's max_batch is clamped to this).
  virtual std::size_t slots() const = 0;
  /// Hard context window (prompt + generated), 0 = unbounded.
  virtual std::size_t max_sequence_length() const = 0;

  /// Binds `prompt` to `slot` (must be free) and prefills it whole:
  /// start_chunked(), then prefill_chunk() until the prompt completes,
  /// leaving the logits following the prompt's last token in `out`
  /// (vocab_size() floats).  A convenience over the chunked protocol for
  /// callers outside the engine, which always drives the chunks itself.
  virtual void start(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed, std::span<float> out,
                     std::size_t shared_prefix_tokens = 0) {
    start_chunked(slot, prompt, seed, shared_prefix_tokens);
    bool done = false;
    while (!done) prefill_chunk(slot, prompt.size(), out, &done);
  }

  struct Step {
    std::size_t slot = 0;  ///< bound slot to advance
    int token = 0;         ///< token to append (the one just sampled)
  };

  /// Appends steps[i].token to its slot's sequence and writes the logits
  /// following it into row i of `logits` (resized to [steps.size, vocab]).
  virtual void step(std::span<const Step> steps, lm::Tensor& logits) = 0;

  /// Frees `slot` for reuse.
  virtual void release(std::size_t slot) = 0;

  virtual std::string name() const = 0;

  // ---- resource governance (DESIGN.md §11) ------------------------------
  /// Bytes of per-slot state one cached token costs (KV rows, context
  /// ints…).  The engine multiplies this by prompt + max_tokens to price a
  /// request before prefill.  0 = unknown; cost-based admission degrades to
  /// scratch-only estimates.
  virtual std::size_t bytes_per_token() const { return 0; }
  /// Routes the decoder's actual allocations (KV caches, step scratch)
  /// through `budget` so accounted bytes track reality.  Null detaches.
  /// Called by the engine at construction when its config carries a budget;
  /// must only be called while no slot is occupied.
  virtual void bind_budget(guard::Budget* budget) { (void)budget; }

  // ---- prefix reuse (DESIGN.md §12) -------------------------------------
  /// Looks up the longest cached prefix of `prompt` and reserves whatever
  /// the reuse will cost (the slot's copy of the cached rows), so the
  /// engine can price only the remaining suffix.  Returns the number of
  /// prompt tokens that will be reused by the next start_chunked() for
  /// this prompt; 0 = no cache or no match.  Must be paired with either
  /// that start_chunked() call or abandon_prefix().
  virtual std::size_t prepare_prefix(std::span<const int> prompt) {
    (void)prompt;
    return 0;
  }
  /// Drops the state a prepare_prefix() left behind (unpins the cache
  /// node, returns its reservation).  Safe to call with nothing pending.
  virtual void abandon_prefix() {}
  /// Frees up to `bytes` of cached-prefix memory (LRU first); returns the
  /// bytes actually freed.  The engine calls this before shedding live
  /// work — cached state is always the cheapest thing to give up.
  virtual std::size_t shed_cache(std::size_t bytes) {
    (void)bytes;
    return 0;
  }

  // ---- chunked prefill (DESIGN.md §14) ----------------------------------
  /// Extra bytes the engine should reserve per request on top of
  /// bytes_per_token() × tokens — page-rounding + copy-on-write slack for
  /// paged backends.  0 for exact-byte backends.
  virtual std::size_t cost_slack_bytes() const { return 0; }
  /// Always true: every decoder prefills in chunks.  Nothing in the
  /// library reads it; it stays declared only because the benchmark's
  /// timing wrapper overrides it, and goes with the next change to that
  /// benchmark.
  virtual bool supports_chunked_prefill() const { return true; }
  /// Binds `prompt` to `slot` (must be free) but runs no model forward:
  /// the prompt is prefilled by subsequent prefill_chunk() calls, so one
  /// long prompt cannot stall a whole tick.  `seed` is the request's
  /// GenerateOptions::seed; a decoder over a seeded model passes it to
  /// every next_logits call of the request, as lm::generate does.
  /// `shared_prefix_tokens` forwards Request::shared_prefix_tokens — a
  /// prefix-cache insertion hint implementations may ignore.
  virtual void start_chunked(std::size_t slot, std::span<const int> prompt,
                             std::uint64_t seed,
                             std::size_t shared_prefix_tokens = 0) = 0;
  /// Advances slot's pending prefill by up to `max_tokens` (> 0) prompt
  /// tokens; returns the tokens actually advanced.  When the prompt
  /// completes this sets *done and writes the logits following the last
  /// prompt token into `out` (vocab_size() floats) — the slot is then
  /// ready for step().
  virtual std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                                    std::span<float> out, bool* done) = 0;
};

/// Base for decoder wrappers (fault injection, stalls, timing): forwards
/// every virtual to `inner`, so a wrapper overrides only what it changes
/// and cannot silently drop a call it never heard of.  start() is the one
/// call not forwarded — BatchDecoder's implementation runs through the
/// wrapper's own start_chunked() and prefill_chunk().
class ForwardingDecoder : public BatchDecoder {
 public:
  /// `inner` must outlive the wrapper.
  explicit ForwardingDecoder(BatchDecoder& inner) : inner_(&inner) {}

  int vocab_size() const override { return inner_->vocab_size(); }
  std::size_t slots() const override { return inner_->slots(); }
  std::size_t max_sequence_length() const override {
    return inner_->max_sequence_length();
  }
  void step(std::span<const Step> steps, lm::Tensor& logits) override {
    inner_->step(steps, logits);
  }
  void release(std::size_t slot) override { inner_->release(slot); }
  std::string name() const override { return inner_->name(); }
  std::size_t bytes_per_token() const override {
    return inner_->bytes_per_token();
  }
  void bind_budget(guard::Budget* budget) override {
    inner_->bind_budget(budget);
  }
  std::size_t prepare_prefix(std::span<const int> prompt) override {
    return inner_->prepare_prefix(prompt);
  }
  void abandon_prefix() override { inner_->abandon_prefix(); }
  std::size_t shed_cache(std::size_t bytes) override {
    return inner_->shed_cache(bytes);
  }
  std::size_t cost_slack_bytes() const override {
    return inner_->cost_slack_bytes();
  }
  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens = 0) override {
    inner_->start_chunked(slot, prompt, seed, shared_prefix_tokens);
  }
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override {
    return inner_->prefill_chunk(slot, max_tokens, out, done);
  }

 protected:
  BatchDecoder& inner() const { return *inner_; }

 private:
  BatchDecoder* inner_;
};

/// KV-cached batched decoder over any lm::KvBackend — the f32 TransformerLm
/// or the quantized quant::QuantizedLm (DESIGN.md §17).  `parallel` enables
/// splitting large step batches across the global thread pool.
class TransformerBatchDecoder final : public BatchDecoder {
 public:
  /// Every slot's KvCache pages out of `pool` (DESIGN.md §14), which must
  /// outlive the decoder and any prefix cache sharing it; without one the
  /// decoder owns a private pool of the model's shape (default page size)
  /// that all its slots share.  Prefix-cache hits on the same pool share
  /// pages zero-copy, and pool exhaustion surfaces as mem::PoolExhausted
  /// from start_chunked/prefill_chunk/step, which the engine maps to a
  /// Shed.
  TransformerBatchDecoder(lm::KvBackend& model, std::size_t slots,
                          bool parallel = true,
                          mem::PagePool* pool = nullptr);

  int vocab_size() const override { return model_->vocab_size(); }
  std::size_t slots() const override { return caches_.size(); }
  std::size_t max_sequence_length() const override {
    return static_cast<std::size_t>(model_->config().max_seq);
  }
  void step(std::span<const Step> steps, lm::Tensor& logits) override;
  void release(std::size_t slot) override;
  std::string name() const override { return "transformer-batch"; }
  /// One cached token = a key + value row per layer.
  std::size_t bytes_per_token() const override {
    const lm::TransformerConfig& cfg = model_->config();
    return 2 * static_cast<std::size_t>(cfg.n_layer) *
           static_cast<std::size_t>(cfg.d_model) * sizeof(float);
  }
  void bind_budget(guard::Budget* budget) override;

  /// Attaches a prefix cache (null detaches); must share this decoder's
  /// model and, once bind_budget runs, its budget.  The cache must outlive
  /// the decoder.  start_chunked() then reuses the longest cached prefix
  /// of each prompt (bit-identical — see prefill_from) and inserts completed
  /// prefixes back per the cache's config.
  void set_prefix_cache(cache::PrefixCache* prefix_cache);
  std::size_t prepare_prefix(std::span<const int> prompt) override;
  void abandon_prefix() override;
  std::size_t shed_cache(std::size_t bytes) override;

  std::size_t cost_slack_bytes() const override {
    // Page rounding (≤ 1 page) plus one transient copy-on-write page.
    return 2 * pool_->page_bytes();
  }
  /// Claims the slot and consumes the pending prefix lookup, sharing the
  /// cached rows into the slot cache; prefill_chunk() forwards the rest.
  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens = 0) override;
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override;

 private:
  lm::KvBackend* model_;
  std::vector<lm::KvCache> caches_;
  std::vector<std::vector<int>> sequences_;  // per slot, for bound checks
  bool parallel_;
  std::shared_ptr<mem::PagePool> private_pool_;  // set when built poolless
  mem::PagePool* pool_ = nullptr;    // every slot's KV pages
  guard::Budget* budget_ = nullptr;  // step-scratch accounting
  cache::PrefixCache* prefix_cache_ = nullptr;
  cache::PrefixCache::Lookup pending_;  ///< prepare_prefix → start_chunked
  bool pending_valid_ = false;
  std::vector<std::size_t> surcharges_;  ///< per-slot prefix-copy reservation
  /// Per slot: prompt tokens not yet prefilled (0 = prefill complete); the
  /// cache's own length() is the resume position within sequences_[slot].
  std::vector<std::size_t> pending_prompt_;
  /// Per slot: prompt tokens to insert into the prefix cache once prefilled.
  std::vector<std::size_t> insert_lens_;
};

/// Context-replay decoder for arbitrary LanguageModels.  Each step re-runs
/// next_logits over the slot's full context — O(T) model calls overall,
/// exactly what lm::generate does, so results match it bit for bit.
class GenericBatchDecoder final : public BatchDecoder {
 public:
  GenericBatchDecoder(lm::LanguageModel& model, std::size_t slots);

  int vocab_size() const override { return model_->vocab_size(); }
  std::size_t slots() const override { return contexts_.size(); }
  std::size_t max_sequence_length() const override { return 0; }
  void step(std::span<const Step> steps, lm::Tensor& logits) override;
  void release(std::size_t slot) override;
  std::string name() const override { return "generic-replay"; }
  /// One cached token = one context int.
  std::size_t bytes_per_token() const override { return sizeof(int); }
  void bind_budget(guard::Budget* budget) override { budget_ = budget; }
  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens = 0) override;
  /// Replay has no incremental state: a chunk only advances the slot's
  /// cursor, and the final chunk runs next_logits over the whole prompt
  /// with the slot's seed — the exact call lm::generate makes.
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override;

 private:
  /// Re-reports slot `slot`'s context bytes after a mutation.
  void settle(std::size_t slot);

  lm::LanguageModel* model_;
  std::vector<std::vector<int>> contexts_;  // per slot; empty = free
  std::vector<std::uint64_t> seeds_;        // per slot sampling seed
  std::vector<std::size_t> accounted_;      // per slot bytes reported
  std::vector<std::size_t> pending_prompt_; // per slot tokens not prefilled
  guard::Budget* budget_ = nullptr;
};

}  // namespace lmpeel::serve
