// Shutdown-ordering regression tests for the serve engine (fast label, run
// under LMPEEL_SANITIZE=thread in the verify recipe): submit after
// shutdown(), shutdown() racing submit(), and concurrent double-shutdown
// must all resolve every future with a definite status — no hang, no
// crash, no lost promise.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "lm/transformer.hpp"
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

Request tiny_request(std::size_t salt) {
  Request request;
  request.prompt = {static_cast<int>(5 + salt % 40),
                    static_cast<int>(6 + salt % 30)};
  request.options.sampler.temperature = 0.0;
  request.options.max_tokens = 2;
  return request;
}

TEST(ServeShutdown, SubmitAfterShutdownIsRejectedNotCrashed) {
  lm::TransformerLm model(tiny_config(), 17);
  TransformerBatchDecoder decoder(model, 2);
  Engine engine(decoder);
  EXPECT_TRUE(engine.accepting());
  engine.shutdown();
  EXPECT_FALSE(engine.accepting());
  for (std::size_t i = 0; i < 4; ++i) {
    auto result = engine.submit(tiny_request(i)).get();
    EXPECT_EQ(result.status, RequestStatus::ShutDown);
  }
}

// Every refusal must name the true reason, decided under one lock in a
// fixed precedence (ShutDown > DeadlineExpired > PromptTooLong > queue
// policy).  An earlier version checked deadline/prompt outside the lock, so
// a submit racing shutdown() could report DeadlineExpired or QueueFull for
// an engine that was actually stopping.
TEST(ServeShutdown, RefusalPrecedenceNamesTheTrueReason) {
  lm::TransformerLm model(tiny_config(), 17);
  TransformerBatchDecoder decoder(model, 2);
  Engine engine(decoder);

  Request late = tiny_request(0);
  late.deadline = Clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(engine.submit(late).get().status,
            RequestStatus::DeadlineExpired);

  Request oversized = tiny_request(1);
  oversized.prompt.assign(70, 5);  // window is 64
  EXPECT_EQ(engine.submit(oversized).get().status,
            RequestStatus::PromptTooLong);

  // Both defects at once: the deadline outranks the prompt check.
  Request late_and_oversized = oversized;
  late_and_oversized.deadline = Clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(engine.submit(late_and_oversized).get().status,
            RequestStatus::DeadlineExpired);

  // After shutdown the same defective requests report ShutDown — the
  // engine being stopped outranks everything else.
  engine.shutdown();
  Request late_again = tiny_request(2);
  late_again.deadline = Clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(engine.submit(late_again).get().status, RequestStatus::ShutDown);
  Request oversized_again = oversized;
  EXPECT_EQ(engine.submit(oversized_again).get().status,
            RequestStatus::ShutDown);
}

TEST(ServeShutdown, DoubleShutdownIsIdempotent) {
  lm::TransformerLm model(tiny_config(), 17);
  TransformerBatchDecoder decoder(model, 2);
  Engine engine(decoder);
  engine.shutdown();
  engine.shutdown();  // second call must be a no-op, not a double-join
  EXPECT_FALSE(engine.accepting());
}

TEST(ServeShutdown, ConcurrentDoubleShutdownFromManyThreads) {
  lm::TransformerLm model(tiny_config(), 17);
  for (std::size_t round = 0; round < 4; ++round) {
    TransformerBatchDecoder decoder(model, 2);
    Engine engine(decoder);
    // Some in-flight work so shutdown actually has something to drain.
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < 4; ++i) {
      futures.push_back(engine.submit(tiny_request(i)));
    }
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&engine] { engine.shutdown(); });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_FALSE(engine.accepting());
    for (auto& future : futures) {
      const auto result = future.get();  // definite status, no hang
      EXPECT_TRUE(result.status == RequestStatus::Ok ||
                  result.status == RequestStatus::ShutDown);
    }
  }
}

/// Forwards to a real TransformerBatchDecoder but makes every prefill chunk
/// slow and observable, so a test can catch the engine with a request that
/// is admitted to a slot yet still mid-prefill.
class SlowChunkDecoder final : public ForwardingDecoder {
 public:
  explicit SlowChunkDecoder(BatchDecoder& inner) : ForwardingDecoder(inner) {}

  std::string name() const override { return "slow-chunk"; }
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const std::size_t advanced =
        inner().prefill_chunk(slot, max_tokens, out, done);
    chunks_.fetch_add(1);
    return advanced;
  }

  std::size_t chunks() const { return chunks_.load(); }

 private:
  std::atomic<std::size_t> chunks_{0};
};

// A graceful shutdown must retire a request whose chunked prefill is still
// in flight as Cancelled — not hang waiting for the prompt to finish, and
// not mislabel it ShutDown (it *was* admitted) or EngineError (nothing
// failed).  An earlier engine only swept the queued backlog, so a
// mid-prefill request's future never resolved.
TEST(ServeShutdown, ShutdownMidPrefillChunkRetiresRequestAsCancelled) {
  lm::TransformerLm model(tiny_config(), 17);
  TransformerBatchDecoder inner(model, 2);
  SlowChunkDecoder decoder(inner);
  EngineConfig config;
  config.max_batch = 2;
  config.prefill_chunk_tokens = 4;
  Engine engine(decoder, config);

  Request request = tiny_request(0);
  request.prompt.assign(24, 7);  // 6 chunks x >=25ms each
  request.options.max_tokens = 2;
  auto future = engine.submit(std::move(request));

  // Wait until at least one chunk has run — the request is provably
  // admitted and provably not finished prefilling (5 chunks remain).
  for (std::size_t spin = 0; spin < 400 && decoder.chunks() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(decoder.chunks(), 1u);
  engine.shutdown();

  const auto result = future.get();
  EXPECT_EQ(result.status, RequestStatus::Cancelled)
      << status_name(result.status);
  EXPECT_TRUE(result.generation.tokens.empty());
}

TEST(ServeShutdown, SubmitHammerRacingShutdownResolvesEveryFuture) {
  lm::TransformerLm model(tiny_config(), 17);
  for (std::size_t round = 0; round < 3; ++round) {
    TransformerBatchDecoder decoder(model, 2);
    EngineConfig config;
    config.max_batch = 2;
    config.queue_capacity = 4;
    Engine engine(decoder, config);

    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 16;
    std::vector<std::vector<std::future<ServeResult>>> futures(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        while (!go.load()) {
        }
        for (std::size_t i = 0; i < kPerThread; ++i) {
          futures[t].push_back(engine.submit(tiny_request(t * 31 + i)));
        }
      });
    }
    std::thread stopper([&] {
      while (!go.load()) {
      }
      engine.shutdown();
    });
    go.store(true);
    for (auto& thread : submitters) thread.join();
    stopper.join();

    // Whatever the interleaving, every submitted request must resolve with
    // a definite status — submissions raced against shutdown land on Ok,
    // ShutDown or QueueFull, never a hung future.
    for (auto& per_thread : futures) {
      for (auto& future : per_thread) {
        const auto result = future.get();
        EXPECT_TRUE(result.status == RequestStatus::Ok ||
                    result.status == RequestStatus::ShutDown ||
                    result.status == RequestStatus::QueueFull)
            << status_name(result.status);
      }
    }
  }
}

}  // namespace
}  // namespace lmpeel::serve
