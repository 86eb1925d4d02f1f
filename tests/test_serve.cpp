#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "quant/quantized_lm.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"

namespace lmpeel::serve {
namespace {

lm::TransformerConfig tiny_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = 60;
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  return cfg;
}

std::vector<std::vector<int>> ragged_prompts(std::size_t n) {
  std::vector<std::vector<int>> prompts;
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<int> prompt;
    for (std::size_t t = 0; t < 3 + r; ++t) {
      prompt.push_back(static_cast<int>(5 + (r * 7 + t * 3) % 50));
    }
    prompts.push_back(std::move(prompt));
  }
  return prompts;
}

void expect_same_generation(const lm::Generation& expected,
                            const lm::Generation& actual, std::size_t which) {
  ASSERT_EQ(expected.tokens, actual.tokens) << "request " << which;
  EXPECT_EQ(expected.hit_max_tokens, actual.hit_max_tokens);
  // Both sides must have opted in: two unrecorded (empty) traces would
  // compare equal without checking anything.
  ASSERT_EQ(expected.trace.length(), expected.tokens.size());
  ASSERT_EQ(actual.trace.length(), actual.tokens.size());
  for (std::size_t s = 0; s < expected.trace.length(); ++s) {
    const lm::Step& e = expected.trace.step(s);
    const lm::Step& a = actual.trace.step(s);
    EXPECT_EQ(e.chosen, a.chosen);
    ASSERT_EQ(e.candidates.size(), a.candidates.size())
        << "request " << which << " step " << s;
    for (std::size_t c = 0; c < e.candidates.size(); ++c) {
      EXPECT_EQ(e.candidates[c].token, a.candidates[c].token);
      // Bit-for-bit: the engine's batched decode must reproduce the exact
      // floats of the serial generate() path, not just close ones.
      EXPECT_EQ(e.candidates[c].logit, a.candidates[c].logit)
          << "request " << which << " step " << s << " candidate " << c;
      EXPECT_EQ(e.candidates[c].prob, a.candidates[c].prob);
    }
  }
}

// The tentpole guarantee: greedy decoding through the engine — any batch
// size, ragged prompt lengths, continuous admission — is token-for-token
// AND logit-for-logit identical to serial lm::generate.
TEST(ServeEngine, BatchedGreedyDecodeMatchesSequentialGenerate) {
  lm::TransformerLm model(tiny_config(), 21);
  // Eleven requests so max_batch 9 genuinely runs a 9-wide batch (the
  // blocked 8-row matmul path plus a tail row) with continuous admission.
  const auto prompts = ragged_prompts(11);

  std::vector<lm::GenerateOptions> options(prompts.size());
  std::vector<lm::Generation> expected;
  for (std::size_t r = 0; r < prompts.size(); ++r) {
    options[r].sampler.temperature = 0.0;  // greedy
    options[r].max_tokens = 9 + r % 3;
    options[r].seed = r;
    options[r].record_trace = true;
    expected.push_back(lm::generate(model, prompts[r], options[r]));
  }

  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{2},
                                      std::size_t{7}, std::size_t{9}}) {
    TransformerBatchDecoder decoder(model, max_batch);
    EngineConfig config;
    config.max_batch = max_batch;
    Engine engine(decoder, config);

    std::vector<Request> requests;
    for (std::size_t r = 0; r < prompts.size(); ++r) {
      Request request;
      request.prompt = prompts[r];
      request.options = options[r];
      requests.push_back(std::move(request));
    }
    const auto results = generate_all(engine, std::move(requests));
    ASSERT_EQ(results.size(), prompts.size());
    for (std::size_t r = 0; r < results.size(); ++r) {
      ASSERT_EQ(results[r].status, RequestStatus::Ok)
          << "max_batch " << max_batch << " request " << r;
      expect_same_generation(expected[r], results[r].generation, r);
      EXPECT_GT(results[r].total_s, 0.0);
    }
  }
}

TEST(ServeEngine, RecordsMetrics) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  lm::TransformerLm model(tiny_config(), 3);
  TransformerBatchDecoder decoder(model, 4);
  Engine engine(decoder);

  lm::GenerateOptions options;
  options.sampler.temperature = 0.0;
  options.max_tokens = 6;
  const auto prompts = ragged_prompts(4);
  std::vector<Request> requests;
  for (const auto& prompt : prompts) {
    requests.push_back(Request{prompt, options, Clock::time_point::max(), {}});
  }
  generate_all(engine, std::move(requests));

  EXPECT_GT(reg.counter("serve.requests_submitted").value(), 0u);
  EXPECT_GT(reg.counter("serve.tokens_generated").value(), 0u);
  EXPECT_GT(reg.counter("serve.retired.ok").value(), 0u);
  EXPECT_GT(reg.histogram("serve.ttft_s").count(), 0u);
  EXPECT_GT(reg.histogram("serve.queue_wait_s").count(), 0u);
  EXPECT_GT(reg.histogram("serve.batch_occupancy").count(), 0u);
}

TEST(ServeEngine, RejectsOverlongPrompts) {
  lm::TransformerLm model(tiny_config(), 4);  // max_seq 64
  TransformerBatchDecoder decoder(model, 2);
  Engine engine(decoder);
  Request request;
  request.prompt.assign(60, 5);
  request.options.max_tokens = 10;  // 60 + 10 > 64
  const auto result = engine.submit(std::move(request)).get();
  EXPECT_EQ(result.status, RequestStatus::PromptTooLong);
  EXPECT_TRUE(result.generation.tokens.empty());
}

// ---- admission-control tests against a gate-controlled fake decoder ------

/// Deterministic decoder whose step() blocks until the gate opens and can
/// inject a fixed per-step delay — lets the tests hold requests in flight
/// (or in queue) at will.  Token 7 is always the argmax; eos never is.
class GateDecoder final : public BatchDecoder {
 public:
  explicit GateDecoder(std::size_t slots, bool start_open = false,
                       std::chrono::milliseconds step_delay = {})
      : slots_(slots), pending_(slots, 0), open_(start_open),
        step_delay_(step_delay) {}

  int vocab_size() const override { return 10; }
  std::size_t slots() const override { return slots_; }
  std::size_t max_sequence_length() const override { return 0; }

  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t, std::size_t = 0) override {
    pending_[slot] = prompt.size();
    starts_.fetch_add(1);
  }
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override {
    const std::size_t take = std::min(max_tokens, pending_[slot]);
    pending_[slot] -= take;
    *done = pending_[slot] == 0;
    if (*done) fill(out);
    return take;
  }
  void step(std::span<const Step> steps, lm::Tensor& logits) override {
    wait_open();
    if (step_delay_.count() > 0) std::this_thread::sleep_for(step_delay_);
    steps_taken_.fetch_add(1);
    logits = lm::Tensor(steps.size(), 10);
    for (std::size_t i = 0; i < steps.size(); ++i) fill(logits.row(i));
  }
  void release(std::size_t) override {}
  std::string name() const override { return "gate"; }

  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  int steps_taken() const { return steps_taken_.load(); }
  int starts() const { return starts_.load(); }

  /// Spin-waits (bounded) until `count` requests have been admitted.
  void wait_for_starts(int count) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (starts() < count &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(starts(), count) << "engine never admitted enough requests";
  }

 private:
  static void fill(std::span<float> out) {
    for (std::size_t v = 0; v < out.size(); ++v) {
      out[v] = v == 7 ? 1.0f : -1.0f;
    }
  }
  void wait_open() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

  std::size_t slots_;
  std::vector<std::size_t> pending_;  ///< per slot prompt tokens to prefill
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_;
  std::chrono::milliseconds step_delay_;
  std::atomic<int> steps_taken_{0};
  std::atomic<int> starts_{0};
};

Request simple_request(std::size_t max_tokens) {
  Request request;
  request.prompt = {1, 2, 3};
  request.options.sampler.temperature = 0.0;
  request.options.stop_on_eos = false;
  request.options.max_tokens = max_tokens;
  return request;
}

TEST(ServeEngine, FullQueueRejectsInsteadOfBlocking) {
  GateDecoder decoder(/*slots=*/1);
  EngineConfig config;
  config.max_batch = 1;
  config.queue_capacity = 1;
  Engine engine(decoder, config);

  // First request occupies the only slot (its first decode step blocks on
  // the gate); wait for the scheduler to admit it so the next submit is
  // guaranteed to land in the queue, not a slot.
  auto active = engine.submit(simple_request(4));
  decoder.wait_for_starts(1);

  auto queued = engine.submit(simple_request(4));
  // Queue capacity 1 is now exhausted: the third submit must come back
  // rejected immediately, not block.
  auto rejected = engine.submit(simple_request(4));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status, RequestStatus::QueueFull);

  decoder.open();
  EXPECT_EQ(active.get().status, RequestStatus::Ok);
  EXPECT_EQ(queued.get().status, RequestStatus::Ok);
}

TEST(ServeEngine, ExpiredDeadlineIsRejectedBeforeScheduling) {
  GateDecoder decoder(1, /*start_open=*/true);
  Engine engine(decoder);
  Request request = simple_request(4);
  request.deadline = Clock::now() - std::chrono::seconds(1);
  auto future = engine.submit(std::move(request));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto result = future.get();
  EXPECT_EQ(result.status, RequestStatus::DeadlineExpired);
  EXPECT_TRUE(result.generation.tokens.empty());
  EXPECT_EQ(decoder.steps_taken(), 0);
}

TEST(ServeEngine, DeadlineExpiryMidFlightReturnsPartialOutput) {
  GateDecoder decoder(1, /*start_open=*/true,
                      std::chrono::milliseconds(5));
  Engine engine(decoder);
  Request request = simple_request(100000);
  request.deadline = Clock::now() + std::chrono::milliseconds(250);
  const auto result = engine.submit(std::move(request)).get();
  EXPECT_EQ(result.status, RequestStatus::DeadlineExpired);
  // The first token is sampled at admission, before any deadline sweep.
  EXPECT_GE(result.generation.tokens.size(), 1u);
  EXPECT_LT(result.generation.tokens.size(), 100000u);
}

TEST(ServeEngine, CancellationRetiresMidFlight) {
  GateDecoder decoder(1);
  Engine engine(decoder);
  Request request = simple_request(100000);
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  request.cancel = cancel;
  auto future = engine.submit(std::move(request));
  cancel->store(true);
  decoder.open();
  const auto result = future.get();
  EXPECT_EQ(result.status, RequestStatus::Cancelled);
  EXPECT_LT(result.generation.tokens.size(), 100000u);
}

TEST(ServeEngine, ShutdownDrainsInFlightAndFailsQueued) {
  auto decoder = std::make_unique<GateDecoder>(
      /*slots=*/2, /*start_open=*/true, std::chrono::milliseconds(1));
  auto engine = std::make_unique<Engine>(*decoder);

  std::vector<std::future<ServeResult>> futures;
  for (int r = 0; r < 6; ++r) {
    futures.push_back(engine->submit(simple_request(50)));
  }
  decoder->wait_for_starts(1);  // at least one request is mid-flight
  engine->shutdown();

  // No deadlock and no lost promise: every future is ready afterwards, and
  // anything that reached a slot ran to natural completion.
  std::size_t completed = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto result = future.get();
    if (result.status == RequestStatus::Ok) {
      EXPECT_EQ(result.generation.tokens.size(), 50u);
      ++completed;
    } else {
      EXPECT_EQ(result.status, RequestStatus::ShutDown);
      EXPECT_TRUE(result.generation.tokens.empty());
    }
  }
  EXPECT_GE(completed, 1u);  // the first admitted request always drains

  // A submit after shutdown is refused outright.
  auto late = engine->submit(simple_request(4));
  EXPECT_EQ(late.get().status, RequestStatus::ShutDown);
  engine.reset();  // double-shutdown via destructor must be harmless
}

TEST(ServeEngine, GenericDecoderServesInterleavedSeedsDeterministically) {
  // The replay decoder passes each request's seed, so engines with different
  // batch settings and prefill chunk sizes must all reproduce serial
  // lm::generate for the same requests.
  lm::TransformerLm model(tiny_config(), 9);
  const auto prompts = ragged_prompts(4);
  lm::GenerateOptions options;
  options.sampler = {0.9, 0, 1.0};  // stochastic sampling, seeded
  options.max_tokens = 8;
  options.record_trace = true;

  std::vector<Request> requests;
  std::vector<lm::Generation> expected;
  for (std::size_t r = 0; r < prompts.size(); ++r) {
    Request request;
    request.prompt = prompts[r];
    request.options = options;
    request.options.seed = 100 + r;
    expected.push_back(lm::generate(model, prompts[r], request.options));
    requests.push_back(std::move(request));
  }

  obs::Registry& reg = obs::Registry::global();
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{4}}) {
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + " max_batch " +
                   std::to_string(max_batch));
      reg.reset();
      GenericBatchDecoder decoder(model, max_batch);
      EngineConfig config;
      config.max_batch = max_batch;
      config.prefill_chunk_tokens = chunk;
      Engine engine(decoder, config);
      const auto results = generate_all(engine, requests);
      ASSERT_EQ(results.size(), expected.size());
      for (std::size_t r = 0; r < results.size(); ++r) {
        ASSERT_EQ(results[r].status, RequestStatus::Ok);
        expect_same_generation(expected[r], results[r].generation, r);
      }
      // 0 is one chunk per request; 4 splits the 5- and 6-token prompts.
      EXPECT_EQ(reg.counter("serve.prefill_stage.chunks").value(),
                requests.size() + (chunk == 0 ? 0 : 2));
    }
  }
}

std::uint64_t trace_steps() {
  return obs::Registry::global().counter("lm.trace.steps").value();
}

/// Serves `prompts[r]` with `options[r]` through an 8-slot engine whose
/// prefill chunks are shorter than every prompt.
template <typename Model>
std::vector<ServeResult> serve_chunked(
    Model& model, const std::vector<std::vector<int>>& prompts,
    const std::vector<lm::GenerateOptions>& options) {
  TransformerBatchDecoder decoder(model, 8);
  EngineConfig config;
  config.max_batch = 8;
  config.prefill_chunk_tokens = 4;
  Engine engine(decoder, config);
  std::vector<Request> requests;
  for (std::size_t r = 0; r < prompts.size(); ++r) {
    Request request;
    request.prompt = prompts[r];
    request.options = options[r];
    requests.push_back(std::move(request));
  }
  return generate_all(engine, std::move(requests));
}

/// Recording the trace only observes: for greedy and T=0.8, the same
/// request set served with record_trace off and on yields the same tokens
/// and stop flags, the recorded trace equals serial lm::generate's, and
/// unrecorded serving builds no trace step at all.
template <typename Model>
void expect_trace_opt_in_changes_no_tokens(Model& model) {
  std::vector<std::vector<int>> prompts;
  for (std::size_t r = 0; r < 12; ++r) {
    std::vector<int> prompt;
    for (std::size_t t = 0; t < 9 + r; ++t) {
      prompt.push_back(static_cast<int>(5 + (r * 11 + t * 7) % 50));
    }
    prompts.push_back(std::move(prompt));
  }
  for (const double temperature : {0.0, 0.8}) {
    SCOPED_TRACE(temperature);
    std::vector<lm::GenerateOptions> plain_options(prompts.size());
    for (std::size_t r = 0; r < prompts.size(); ++r) {
      plain_options[r].sampler.temperature = temperature;
      plain_options[r].max_tokens = 6 + r % 5;
      plain_options[r].stop_token = r % 3 == 0 ? 17 : -1;
      plain_options[r].seed = 40 + r;
    }
    std::vector<lm::GenerateOptions> traced_options = plain_options;
    for (lm::GenerateOptions& options : traced_options) {
      options.record_trace = true;
    }

    const std::uint64_t steps_before = trace_steps();
    const auto plain = serve_chunked(model, prompts, plain_options);
    EXPECT_EQ(trace_steps(), steps_before);
    const auto traced = serve_chunked(model, prompts, traced_options);
    EXPECT_GT(trace_steps(), steps_before);

    ASSERT_EQ(plain.size(), prompts.size());
    ASSERT_EQ(traced.size(), prompts.size());
    for (std::size_t r = 0; r < prompts.size(); ++r) {
      ASSERT_EQ(plain[r].status, RequestStatus::Ok) << r;
      ASSERT_EQ(traced[r].status, RequestStatus::Ok) << r;
      EXPECT_EQ(plain[r].generation.tokens, traced[r].generation.tokens) << r;
      EXPECT_EQ(plain[r].generation.hit_max_tokens,
                traced[r].generation.hit_max_tokens) << r;
      EXPECT_EQ(plain[r].generation.trace.length(), 0u) << r;
      const lm::Generation serial =
          lm::generate(model, prompts[r], traced_options[r]);
      expect_same_generation(serial, traced[r].generation, r);
    }
  }
}

TEST(ServeEngine, TraceOptInChangesNoTokensF32) {
  lm::TransformerLm model(tiny_config(), 23);
  expect_trace_opt_in_changes_no_tokens(model);
}

TEST(ServeEngine, TraceOptInChangesNoTokensInt8) {
  lm::TransformerLm source(tiny_config(), 23);
  quant::QuantizedLm model(source, quant::WeightFormat::kInt8);
  expect_trace_opt_in_changes_no_tokens(model);
}

// A trace reader (the sweep, the CLI's predict) handed a request that did
// not opt in must fail loudly, not read the unrecorded trace as empty.
TEST(ServeEngine, ReadingAnUnrecordedTraceThrows) {
  lm::TransformerLm model(tiny_config(), 5);
  TransformerBatchDecoder decoder(model, 2);
  Engine engine(decoder);
  lm::GenerateOptions options;
  options.sampler.temperature = 0.0;
  options.max_tokens = 4;
  options.stop_on_eos = false;
  const std::vector<int> prompt = {5, 6, 7};

  const ServeResult plain = generate_sync(engine, prompt, options);
  ASSERT_EQ(plain.status, RequestStatus::Ok);
  ASSERT_FALSE(plain.generation.tokens.empty());
  EXPECT_THROW(lm::recorded_trace(plain.generation), std::runtime_error);

  options.record_trace = true;
  const ServeResult traced = generate_sync(engine, prompt, options);
  ASSERT_EQ(traced.status, RequestStatus::Ok);
  EXPECT_EQ(lm::recorded_trace(traced.generation).tokens(),
            traced.generation.tokens);
}

}  // namespace
}  // namespace lmpeel::serve
