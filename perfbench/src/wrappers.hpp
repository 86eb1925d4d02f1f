// Outside-in timing wrappers around the four public seams the benchmark
// measures.  Each forwards every call unchanged to the object it wraps, so
// a wrapped stack produces the same tokens as an unwrapped one
// (tests/test_perfbench.cpp checks this), and times the call into a
// Recorder.
//
//   TimedTuner   tune::Tuner        around tune::LlamboTuner
//   TimedClient  serve::Client      around serve::Engine
//   TimedDecoder serve::BatchDecoder around serve::TransformerBatchDecoder
//   TimedBackend lm::KvBackend      around lm::TransformerLm / QuantizedLm
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <vector>

#include "guard/budget.hpp"
#include "lm/backend.hpp"
#include "mem/page_pool.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "trace.hpp"
#include "tune/campaign.hpp"

namespace perfbench {

class TimedBackend final : public lmpeel::lm::KvBackend {
 public:
  TimedBackend(lmpeel::lm::KvBackend& inner, Recorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  const lmpeel::lm::TransformerConfig& config() const noexcept override {
    return inner_->config();
  }
  int vocab_size() const override { return inner_->vocab_size(); }
  void set_seed(std::uint64_t seed) override { inner_->set_seed(seed); }
  void prefill(lmpeel::lm::KvCache& cache, std::span<const int> tokens,
               std::span<float> out) override;
  void prefill_from(lmpeel::lm::KvCache& cache, std::span<const int> suffix,
                    std::span<float> out) override;
  void decode_batch(std::span<lmpeel::lm::KvCache* const> caches,
                    std::span<const int> tokens,
                    lmpeel::lm::Tensor& logits_out) override;
  std::string backend_name() const override {
    return inner_->backend_name();
  }

 private:
  lmpeel::lm::KvBackend* inner_;
  Recorder* recorder_;
};

/// Also samples the page pool and budget after every call (peaks are
/// read from the library's own accessors, never from new registry names),
/// and performs the prefix lookup as an explicit prepare_prefix() call
/// when the engine did not, so lookup time is timed on every workload.
/// TransformerBatchDecoder runs exactly that call first itself when none
/// is pending, so the sequence of library operations is unchanged.
class TimedDecoder final : public lmpeel::serve::BatchDecoder {
 public:
  TimedDecoder(lmpeel::serve::BatchDecoder& inner, Recorder& recorder,
               const lmpeel::mem::PagePool* pool,
               const lmpeel::guard::Budget* budget)
      : inner_(&inner), recorder_(&recorder), pool_(pool), budget_(budget) {}

  int vocab_size() const override { return inner_->vocab_size(); }
  std::size_t slots() const override { return inner_->slots(); }
  std::size_t max_sequence_length() const override {
    return inner_->max_sequence_length();
  }
  void start(std::size_t slot, std::span<const int> prompt,
             std::uint64_t seed, std::span<float> out,
             std::size_t shared_prefix_tokens = 0) override;
  void step(std::span<const Step> steps, lmpeel::lm::Tensor& logits) override;
  void release(std::size_t slot) override;
  std::string name() const override { return inner_->name(); }
  std::size_t bytes_per_token() const override {
    return inner_->bytes_per_token();
  }
  void bind_budget(lmpeel::guard::Budget* budget) override {
    inner_->bind_budget(budget);
  }
  std::size_t prepare_prefix(std::span<const int> prompt) override;
  void abandon_prefix() override;
  std::size_t shed_cache(std::size_t bytes) override;
  std::size_t cost_slack_bytes() const override {
    return inner_->cost_slack_bytes();
  }
  bool supports_chunked_prefill() const override {
    return inner_->supports_chunked_prefill();
  }
  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens = 0) override;
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override;

  std::size_t pages_peak() const {
    return pages_peak_.load(std::memory_order_relaxed);
  }
  std::size_t reserved_peak_bytes() const {
    return reserved_peak_.load(std::memory_order_relaxed);
  }
  /// step() calls and rows stepped since construction, counted whether or
  /// not spans are being recorded.
  std::uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  std::uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  /// Logits rows handed back for sampling: one per completed prefill plus
  /// one per stepped row -- the generated tokens of requests that run to
  /// max_tokens.
  std::uint64_t tokens() const {
    return rows() + prefills_.load(std::memory_order_relaxed);
  }

 private:
  /// Times the lookup unless the engine already prepared one.
  void ensure_prepared(std::span<const int> prompt);
  void sample_peaks();

  lmpeel::serve::BatchDecoder* inner_;
  Recorder* recorder_;
  const lmpeel::mem::PagePool* pool_;
  const lmpeel::guard::Budget* budget_;
  bool prepared_ = false;  // scheduler thread only
  std::atomic<std::size_t> pages_peak_{0};
  std::atomic<std::size_t> reserved_peak_{0};
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> rows_{0};
  std::atomic<std::uint64_t> prefills_{0};
};

/// What the benchmark keeps of one served request.
struct RequestRecord {
  Nanos submit_ns = 0;
  Nanos done_ns = 0;  ///< submit_ns + engine-measured total
  lmpeel::serve::RequestStatus status = lmpeel::serve::RequestStatus::Ok;
  std::size_t prompt_tokens = 0;
  std::size_t tokens = 0;
  double queue_wait_s = 0.0;
  double ttft_s = 0.0;
  double total_s = 0.0;
};

/// Records every request (submit time, outcome) and the time callers spend
/// blocked in submit() and future::get().  The returned futures are
/// deferred: get() runs the timing on the caller's thread.
class TimedClient final : public lmpeel::serve::Client {
 public:
  TimedClient(lmpeel::serve::Client& inner, Recorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  std::future<lmpeel::serve::ServeResult> submit(
      lmpeel::serve::Request request) override;
  bool accepting() const override { return inner_->accepting(); }

  /// Records of every request whose future has been read so far.
  std::vector<RequestRecord> records() const;

 private:
  lmpeel::serve::Client* inner_;
  Recorder* recorder_;
  mutable std::mutex mutex_;
  std::vector<RequestRecord> records_;  // guarded by mutex_
};

class TimedTuner final : public lmpeel::tune::Tuner {
 public:
  TimedTuner(lmpeel::tune::Tuner& inner, Recorder& recorder)
      : inner_(&inner), recorder_(&recorder) {}

  lmpeel::perf::Syr2kConfig propose(lmpeel::util::Rng& rng) override;
  void observe(const lmpeel::perf::Syr2kConfig& config,
               double runtime) override;
  std::string name() const override { return inner_->name(); }

 private:
  lmpeel::tune::Tuner* inner_;
  Recorder* recorder_;
};

}  // namespace perfbench
