#include "wrappers.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

std::uint32_t count(std::size_t n) { return static_cast<std::uint32_t>(n); }

void raise_to(std::atomic<std::size_t>& peak, std::size_t value) {
  if (value > peak.load(std::memory_order_relaxed)) {
    peak.store(value, std::memory_order_relaxed);
  }
}

}  // namespace

// ---- TimedBackend ----------------------------------------------------------

void TimedBackend::prefill(lmpeel::lm::KvCache& cache,
                           std::span<const int> tokens,
                           std::span<float> out) {
  ScopedSpan span(*recorder_, Layer::Lm, Op::Prefill, count(tokens.size()));
  inner_->prefill(cache, tokens, out);
}

void TimedBackend::prefill_from(lmpeel::lm::KvCache& cache,
                                std::span<const int> suffix,
                                std::span<float> out) {
  ScopedSpan span(*recorder_, Layer::Lm, Op::PrefillFrom,
                  count(suffix.size()));
  inner_->prefill_from(cache, suffix, out);
}

void TimedBackend::decode_batch(std::span<lmpeel::lm::KvCache* const> caches,
                                std::span<const int> tokens,
                                lmpeel::lm::Tensor& logits_out) {
  ScopedSpan span(*recorder_, Layer::Lm, Op::DecodeBatch,
                  count(caches.size()));
  inner_->decode_batch(caches, tokens, logits_out);
}

// ---- TimedDecoder ----------------------------------------------------------

void TimedDecoder::sample_peaks() {
  if (pool_ != nullptr) raise_to(pages_peak_, pool_->pages_in_use());
  if (budget_ != nullptr) raise_to(reserved_peak_, budget_->reserved());
}

void TimedDecoder::ensure_prepared(std::span<const int> prompt) {
  if (!prepared_) {
    ScopedSpan span(*recorder_, Layer::Decoder, Op::PreparePrefix,
                    count(prompt.size()));
    inner_->prepare_prefix(prompt);
  }
  prepared_ = false;
}

void TimedDecoder::start(std::size_t slot, std::span<const int> prompt,
                         std::uint64_t seed, std::span<float> out,
                         std::size_t shared_prefix_tokens) {
  ensure_prepared(prompt);
  {
    ScopedSpan span(*recorder_, Layer::Decoder, Op::Start,
                    count(prompt.size()));
    inner_->start(slot, prompt, seed, out, shared_prefix_tokens);
  }
  prefills_.fetch_add(1, std::memory_order_relaxed);
  sample_peaks();
}

void TimedDecoder::step(std::span<const Step> steps,
                        lmpeel::lm::Tensor& logits) {
  {
    ScopedSpan span(*recorder_, Layer::Decoder, Op::Step, count(steps.size()));
    inner_->step(steps, logits);
  }
  steps_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(steps.size(), std::memory_order_relaxed);
  sample_peaks();
}

void TimedDecoder::release(std::size_t slot) {
  {
    ScopedSpan span(*recorder_, Layer::Decoder, Op::Release, 0);
    inner_->release(slot);
  }
  sample_peaks();
}

std::size_t TimedDecoder::prepare_prefix(std::span<const int> prompt) {
  ScopedSpan span(*recorder_, Layer::Decoder, Op::PreparePrefix,
                  count(prompt.size()));
  const std::size_t reused = inner_->prepare_prefix(prompt);
  prepared_ = true;
  return reused;
}

void TimedDecoder::abandon_prefix() {
  ScopedSpan span(*recorder_, Layer::Decoder, Op::AbandonPrefix, 0);
  inner_->abandon_prefix();
  prepared_ = false;
}

std::size_t TimedDecoder::shed_cache(std::size_t bytes) {
  ScopedSpan span(*recorder_, Layer::Decoder, Op::ShedCache, 0);
  return inner_->shed_cache(bytes);
}

void TimedDecoder::start_chunked(std::size_t slot, std::span<const int> prompt,
                                 std::uint64_t seed,
                                 std::size_t shared_prefix_tokens) {
  ensure_prepared(prompt);
  {
    ScopedSpan span(*recorder_, Layer::Decoder, Op::StartChunked,
                    count(prompt.size()));
    inner_->start_chunked(slot, prompt, seed, shared_prefix_tokens);
  }
  sample_peaks();
}

std::size_t TimedDecoder::prefill_chunk(std::size_t slot,
                                        std::size_t max_tokens,
                                        std::span<float> out, bool* done) {
  std::size_t advanced = 0;
  {
    ScopedSpan span(*recorder_, Layer::Decoder, Op::PrefillChunk, 0);
    advanced = inner_->prefill_chunk(slot, max_tokens, out, done);
    span.set_n(count(advanced));
    span.set_done(*done);
  }
  if (*done) prefills_.fetch_add(1, std::memory_order_relaxed);
  sample_peaks();
  return advanced;
}

// ---- TimedClient -----------------------------------------------------------

std::future<lmpeel::serve::ServeResult> TimedClient::submit(
    lmpeel::serve::Request request) {
  RequestRecord record;
  record.prompt_tokens = request.prompt.size();
  std::future<lmpeel::serve::ServeResult> inner_future;
  {
    ScopedSpan span(*recorder_, Layer::Client, Op::Blocked, 0,
                    /*gated=*/false);
    record.submit_ns = now_ns();
    inner_future = inner_->submit(std::move(request));
  }
  return std::async(
      std::launch::deferred,
      [this, record, future = std::move(inner_future)]() mutable {
        lmpeel::serve::ServeResult result;
        {
          ScopedSpan span(*recorder_, Layer::Client, Op::Blocked, 0,
                          /*gated=*/false);
          result = future.get();
        }
        record.status = result.status;
        record.tokens = result.generation.tokens.size();
        record.queue_wait_s = result.queue_wait_s;
        record.ttft_s = result.ttft_s;
        record.total_s = result.total_s;
        record.done_ns =
            record.submit_ns + static_cast<Nanos>(result.total_s * 1e9);
        Span outstanding;
        outstanding.layer = Layer::Serve;
        outstanding.op = Op::Outstanding;
        outstanding.thread = thread_slot();
        outstanding.t0 = record.submit_ns;
        outstanding.t1 = record.done_ns;
        outstanding.n = count(record.tokens);
        recorder_->add(outstanding);
        {
          std::lock_guard lock(mutex_);
          records_.push_back(record);
        }
        return result;
      });
}

std::vector<RequestRecord> TimedClient::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

// ---- TimedTuner ------------------------------------------------------------

lmpeel::perf::Syr2kConfig TimedTuner::propose(lmpeel::util::Rng& rng) {
  ScopedSpan span(*recorder_, Layer::Tune, Op::Propose, 0, /*gated=*/false);
  return inner_->propose(rng);
}

void TimedTuner::observe(const lmpeel::perf::Syr2kConfig& config,
                         double runtime) {
  ScopedSpan span(*recorder_, Layer::Tune, Op::Observe, 0, /*gated=*/false);
  inner_->observe(config, runtime);
}

}  // namespace perfbench
