#include "serve/decoder.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace lmpeel::serve {

// ---- TransformerBatchDecoder ---------------------------------------------

TransformerBatchDecoder::TransformerBatchDecoder(lm::KvBackend& model,
                                                 std::size_t slots,
                                                 bool parallel,
                                                 mem::PagePool* pool)
    : model_(&model), caches_(slots), sequences_(slots), parallel_(parallel),
      pool_(pool), surcharges_(slots, 0), pending_prompt_(slots, 0),
      insert_lens_(slots, 0) {
  LMPEEL_CHECK_MSG(slots > 0, "TransformerBatchDecoder needs >= 1 slot");
  const lm::TransformerConfig& cfg = model_->config();
  if (pool_ == nullptr) {
    mem::PagePoolConfig config;
    config.n_layer = static_cast<std::size_t>(cfg.n_layer);
    config.d_model = static_cast<std::size_t>(cfg.d_model);
    private_pool_ = std::make_shared<mem::PagePool>(config);
    pool_ = private_pool_.get();
  }
  LMPEEL_CHECK_MSG(
      pool_->config().n_layer == static_cast<std::size_t>(cfg.n_layer) &&
          pool_->config().d_model == static_cast<std::size_t>(cfg.d_model),
      "PagePool shape does not match the model");
  // Slots co-own a private pool, so prefix-cache nodes sharing its pages
  // keep it alive even if they outlive the decoder.
  for (auto& cache : caches_) {
    if (private_pool_) {
      cache.attach_pool(private_pool_);
    } else {
      cache.attach_pool(pool_);
    }
  }
}

void TransformerBatchDecoder::bind_budget(guard::Budget* budget) {
  budget_ = budget;
  // KV bytes are accounted by the pool, once per in-use page; the decoder
  // itself charges only step scratch.
  pool_->bind_budget(budget);
  if (prefix_cache_ != nullptr) prefix_cache_->bind_budget(budget);
}

void TransformerBatchDecoder::set_prefix_cache(
    cache::PrefixCache* prefix_cache) {
  abandon_prefix();
  prefix_cache_ = prefix_cache;
  if (prefix_cache_ != nullptr && budget_ != nullptr) {
    prefix_cache_->bind_budget(budget_);
  }
}

std::size_t TransformerBatchDecoder::prepare_prefix(
    std::span<const int> prompt) {
  abandon_prefix();
  if (prefix_cache_ == nullptr || prompt.size() < 2) return 0;
  // Cap at prompt-1: the cache stores only K/V rows, so at least one
  // suffix token must be forwarded to produce logits.  The surcharge
  // reservation covers this slot's copy of the matched rows; the engine
  // then prices only the suffix.
  pending_ = prefix_cache_->acquire(
      prompt, prompt.size() - 1, budget_ != nullptr ? bytes_per_token() : 0);
  pending_valid_ = true;
  return pending_.tokens;
}

void TransformerBatchDecoder::abandon_prefix() {
  if (!pending_valid_) return;
  if (prefix_cache_ != nullptr) {
    const std::size_t surcharge = pending_.surcharge_bytes;
    prefix_cache_->release(pending_);
    prefix_cache_->release_bytes(surcharge);
  }
  pending_ = cache::PrefixCache::Lookup{};
  pending_valid_ = false;
}

std::size_t TransformerBatchDecoder::shed_cache(std::size_t bytes) {
  if (prefix_cache_ == nullptr) return 0;
  return prefix_cache_->shed(bytes);
}

void TransformerBatchDecoder::start_chunked(std::size_t slot,
                                            std::span<const int> prompt,
                                            std::uint64_t seed,
                                            std::size_t shared_prefix_tokens) {
  LMPEEL_CHECK(slot < caches_.size());
  LMPEEL_CHECK_MSG(sequences_[slot].empty(),
                   "start_chunked() on an occupied slot");
  LMPEEL_CHECK(!prompt.empty());
  model_->set_seed(seed);  // TransformerLm ignores it; kept for parity
  caches_[slot].clear();
  std::size_t reused = 0;
  if (prefix_cache_ != nullptr) {
    if (!pending_valid_) prepare_prefix(prompt);
    cache::PrefixCache::Lookup lookup = pending_;
    pending_ = cache::PrefixCache::Lookup{};
    pending_valid_ = false;
    reused = lookup.tokens;
    LMPEEL_CHECK_MSG(reused < prompt.size(),
                     "prepared prefix does not fit this prompt");
    // The surcharge travels with the slot from here on: release(slot)
    // returns it even if the prefill throws.
    surcharges_[slot] = lookup.surcharge_bytes;
    if (reused > 0) prefix_cache_->copy_to(lookup, caches_[slot]);
    prefix_cache_->release(lookup);
    insert_lens_[slot] =
        shared_prefix_tokens > 0
            ? std::min(shared_prefix_tokens, prompt.size())
            : (prefix_cache_->config().auto_insert_prompts ? prompt.size()
                                                           : 0);
  }
  // Reused rows are already in the cache (cache.length() == reused), so
  // only the remainder needs forwarding — prefill_chunk resumes from the
  // cache's own length.
  sequences_[slot].assign(prompt.begin(), prompt.end());
  pending_prompt_[slot] = prompt.size() - reused;
}

std::size_t TransformerBatchDecoder::prefill_chunk(std::size_t slot,
                                                   std::size_t max_tokens,
                                                   std::span<float> out,
                                                   bool* done) {
  LMPEEL_CHECK(slot < caches_.size());
  LMPEEL_CHECK_MSG(pending_prompt_[slot] > 0,
                   "prefill_chunk() without a pending prefill");
  LMPEEL_CHECK(max_tokens > 0 && done != nullptr);
  const std::vector<int>& prompt = sequences_[slot];
  const std::size_t base = caches_[slot].length();
  LMPEEL_CHECK(base + pending_prompt_[slot] == prompt.size());
  const std::size_t take = std::min(max_tokens, pending_prompt_[slot]);
  const std::span<const int> chunk(prompt.data() + base, take);
  const bool final_chunk = take == pending_prompt_[slot];
  // Mid-prompt logits are never sampled; they go to a scratch buffer.  The
  // chunk boundary cannot change any float: prefill_from rows only read
  // K/V of earlier positions, which are identical however the prompt is
  // sliced (DESIGN.md §12/§14).
  chunk_logits_.resize(static_cast<std::size_t>(model_->vocab_size()));
  model_->prefill_from(caches_[slot], chunk,
                       final_chunk ? out : std::span<float>(chunk_logits_));
  pending_prompt_[slot] -= take;
  *done = final_chunk;
  if (final_chunk && prefix_cache_ != nullptr && insert_lens_[slot] > 0) {
    const std::span<const int> prefix(prompt.data(), insert_lens_[slot]);
    prefix_cache_->insert(prefix, caches_[slot]);
  }
  return take;
}

void TransformerBatchDecoder::step(std::span<const Step> steps,
                                   lm::Tensor& logits) {
  const std::size_t batch = steps.size();
  LMPEEL_CHECK(batch > 0);
  const auto vocab = static_cast<std::size_t>(model_->vocab_size());
  if (logits.rows() != batch || logits.cols() != vocab) {
    logits = lm::Tensor(batch, vocab);
  }

  std::vector<lm::KvCache*> caches(batch);
  std::vector<int> tokens(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const Step& s = steps[i];
    LMPEEL_CHECK(s.slot < caches_.size());
    LMPEEL_CHECK_MSG(!sequences_[s.slot].empty(), "step() on a free slot");
    LMPEEL_CHECK_MSG(pending_prompt_[s.slot] == 0,
                     "step() on a slot still prefilling");
    caches[i] = &caches_[s.slot];
    tokens[i] = s.token;
    sequences_[s.slot].push_back(s.token);
  }

  // Rows of a batched step are arithmetically independent, so splitting the
  // batch into contiguous sub-batches across the pool produces the exact
  // same floats as one decode_batch call — parallelism without giving up
  // the equivalence guarantee.  Each chunk still amortises the weight
  // streaming over its own rows, so chunks are kept >= 2 rows.
  util::ThreadPool& pool = util::global_pool();
  const std::size_t chunks =
      parallel_ ? std::min(pool.size(), (batch + 1) / 2) : 1;
  if (chunks <= 1) {
    model_->decode_batch(caches, tokens, logits);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  std::vector<lm::Tensor> chunk_logits(chunks);
  // The split pays one extra batch×vocab logits buffer; account it for the
  // duration of the step so scratch shows up in guard.accounted_bytes.
  const guard::ScopedCharge scratch_charge(
      budget_, batch * vocab * sizeof(float));
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = batch * c / chunks;
    const std::size_t hi = batch * (c + 1) / chunks;
    chunk_logits[c] = lm::Tensor(hi - lo, vocab);
    futures.push_back(pool.submit([this, &caches, &tokens, &chunk_logits, c,
                                   lo, hi] {
      model_->decode_batch(
          std::span<lm::KvCache* const>(caches).subspan(
              lo, hi - lo),
          std::span<const int>(tokens).subspan(lo, hi - lo), chunk_logits[c]);
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = batch * c / chunks;
    std::memcpy(logits.data() + lo * vocab, chunk_logits[c].data(),
                chunk_logits[c].size() * sizeof(float));
  }
}

void TransformerBatchDecoder::release(std::size_t slot) {
  LMPEEL_CHECK(slot < caches_.size());
  caches_[slot].clear();
  sequences_[slot].clear();
  pending_prompt_[slot] = 0;
  insert_lens_[slot] = 0;
  if (surcharges_[slot] > 0) {
    if (prefix_cache_ != nullptr) {
      prefix_cache_->release_bytes(surcharges_[slot]);
    }
    surcharges_[slot] = 0;
  }
}

// ---- GenericBatchDecoder --------------------------------------------------

GenericBatchDecoder::GenericBatchDecoder(lm::LanguageModel& model,
                                         std::size_t slots)
    : model_(&model), contexts_(slots), seeds_(slots, 0),
      accounted_(slots, 0), pending_prompt_(slots, 0) {
  LMPEEL_CHECK_MSG(slots > 0, "GenericBatchDecoder needs >= 1 slot");
}

void GenericBatchDecoder::settle(std::size_t slot) {
  if (budget_ == nullptr) return;
  const std::size_t now = contexts_[slot].size() * sizeof(int);
  if (now > accounted_[slot]) {
    budget_->charge(now - accounted_[slot]);
  } else if (now < accounted_[slot]) {
    budget_->uncharge(accounted_[slot] - now);
  }
  accounted_[slot] = now;
}

void GenericBatchDecoder::start_chunked(std::size_t slot,
                                        std::span<const int> prompt,
                                        std::uint64_t seed,
                                        std::size_t shared_prefix_tokens) {
  (void)shared_prefix_tokens;  // context replay has no prefill to skip
  LMPEEL_CHECK(slot < contexts_.size());
  LMPEEL_CHECK_MSG(contexts_[slot].empty(),
                   "start_chunked() on an occupied slot");
  LMPEEL_CHECK(!prompt.empty());
  contexts_[slot].assign(prompt.begin(), prompt.end());
  seeds_[slot] = seed;
  pending_prompt_[slot] = prompt.size();
  settle(slot);
}

std::size_t GenericBatchDecoder::prefill_chunk(std::size_t slot,
                                               std::size_t max_tokens,
                                               std::span<float> out,
                                               bool* done) {
  LMPEEL_CHECK(slot < contexts_.size());
  LMPEEL_CHECK_MSG(pending_prompt_[slot] > 0,
                   "prefill_chunk() without a pending prefill");
  LMPEEL_CHECK(max_tokens > 0 && done != nullptr);
  const std::size_t take = std::min(max_tokens, pending_prompt_[slot]);
  pending_prompt_[slot] -= take;
  *done = pending_prompt_[slot] == 0;
  if (*done) {
    model_->set_seed(seeds_[slot]);
    model_->next_logits(contexts_[slot], out);
  }
  return take;
}

void GenericBatchDecoder::step(std::span<const Step> steps,
                               lm::Tensor& logits) {
  const std::size_t batch = steps.size();
  LMPEEL_CHECK(batch > 0);
  const auto vocab = static_cast<std::size_t>(model_->vocab_size());
  if (logits.rows() != batch || logits.cols() != vocab) {
    logits = lm::Tensor(batch, vocab);
  }
  for (std::size_t i = 0; i < batch; ++i) {
    const Step& s = steps[i];
    LMPEEL_CHECK(s.slot < contexts_.size());
    LMPEEL_CHECK_MSG(!contexts_[s.slot].empty(), "step() on a free slot");
    LMPEEL_CHECK_MSG(pending_prompt_[s.slot] == 0,
                     "step() on a slot still prefilling");
    contexts_[s.slot].push_back(s.token);
    settle(s.slot);
    // Re-seed before every call: interleaved requests must each see the
    // model in the same state lm::generate would have left it in.
    model_->set_seed(seeds_[s.slot]);
    model_->next_logits(contexts_[s.slot], logits.row(i));
  }
}

void GenericBatchDecoder::release(std::size_t slot) {
  LMPEEL_CHECK(slot < contexts_.size());
  contexts_[slot].clear();
  seeds_[slot] = 0;
  pending_prompt_[slot] = 0;
  settle(slot);
}

}  // namespace lmpeel::serve
