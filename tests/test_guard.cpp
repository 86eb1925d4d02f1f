// Tests for the resource-governance layer (DESIGN.md §11): Budget meter
// semantics, Breaker state machine under a synthetic clock, cost-aware
// admission and shed ordering in the serve engine, and the RetryClient's
// breaker route.
#include "guard/budget.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "fault/faulty_decoder.hpp"
#include "guard/breaker.hpp"
#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "serve/retry.hpp"

namespace lmpeel {
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

serve::Request greedy_request(std::vector<int> prompt, std::size_t max_tokens,
                              serve::Priority priority) {
  serve::Request request;
  request.prompt = std::move(prompt);
  request.options.sampler.temperature = 0.0;
  request.options.max_tokens = max_tokens;
  request.priority = priority;
  return request;
}

// ---- Budget ---------------------------------------------------------------

TEST(Budget, ReservationsEnforceTheLimit) {
  guard::Budget budget(100);
  EXPECT_TRUE(budget.try_reserve(60));
  EXPECT_TRUE(budget.try_reserve(40));
  EXPECT_EQ(budget.reserved(), 100u);
  EXPECT_FALSE(budget.try_reserve(1));  // would exceed
  EXPECT_EQ(budget.denied(), 1u);
  budget.release(40);
  EXPECT_TRUE(budget.try_reserve(40));
  budget.release(100);
  EXPECT_EQ(budget.reserved(), 0u);
}

TEST(Budget, ZeroLimitMeansUnlimitedButStillMetered) {
  guard::Budget budget(0);
  EXPECT_TRUE(budget.try_reserve(1u << 30));
  EXPECT_EQ(budget.denied(), 0u);
  EXPECT_EQ(budget.reserved(), 1u << 30);
  budget.release(1u << 30);
}

TEST(Budget, AccountingNeverFailsAndTracksThePeak) {
  guard::Budget budget(10);  // accounting ignores the limit by design
  budget.charge(25);
  budget.charge(10);
  EXPECT_EQ(budget.accounted(), 35u);
  budget.uncharge(30);
  EXPECT_EQ(budget.accounted(), 5u);
  EXPECT_EQ(budget.accounted_peak(), 35u);
}

TEST(Budget, ScopedChargeIsRaiiAndMovable) {
  guard::Budget budget(0);
  {
    guard::ScopedCharge outer(&budget, 64);
    EXPECT_EQ(budget.accounted(), 64u);
    guard::ScopedCharge moved(std::move(outer));
    EXPECT_EQ(budget.accounted(), 64u);  // transfer, not double-charge
  }
  EXPECT_EQ(budget.accounted(), 0u);
  // A null budget is a no-op at every call site.
  guard::ScopedCharge nothing(nullptr, 1024);
}

// ---- Breaker --------------------------------------------------------------

using BreakerClock = guard::Breaker::Clock;

BreakerClock::time_point at(double seconds) {
  return BreakerClock::time_point{} +
         std::chrono::duration_cast<BreakerClock::duration>(
             std::chrono::duration<double>(1000.0 + seconds));
}

TEST(Breaker, TripsOnConsecutiveFailuresAndRecoversViaProbe) {
  guard::Breaker breaker(guard::BreakerOptions{
      .failure_threshold = 2, .open_s = 1.0, .jitter = 0.0});
  EXPECT_EQ(breaker.state(), guard::Breaker::State::Closed);
  EXPECT_TRUE(breaker.allow(at(0.0)));
  breaker.record_failure(at(0.0));
  EXPECT_EQ(breaker.state(), guard::Breaker::State::Closed);
  breaker.record_success();  // success resets the consecutive count
  breaker.record_failure(at(0.1));
  breaker.record_failure(at(0.2));
  EXPECT_EQ(breaker.state(), guard::Breaker::State::Open);
  EXPECT_EQ(breaker.opened(), 1u);
  EXPECT_EQ(breaker.current_cooldown_s(), 1.0);

  EXPECT_FALSE(breaker.allow(at(0.5)));  // cooling down
  EXPECT_TRUE(breaker.allow(at(1.3)));   // cooldown elapsed: the probe
  EXPECT_EQ(breaker.state(), guard::Breaker::State::HalfOpen);
  EXPECT_EQ(breaker.half_opened(), 1u);
  EXPECT_FALSE(breaker.allow(at(1.3)));  // only one probe at a time
  breaker.record_success();
  EXPECT_EQ(breaker.state(), guard::Breaker::State::Closed);
  EXPECT_EQ(breaker.closed(), 1u);
}

TEST(Breaker, ReopenCooldownGrowsGeometricallyUpToTheCap) {
  guard::Breaker breaker(guard::BreakerOptions{.failure_threshold = 1,
                                               .open_s = 1.0,
                                               .backoff_multiplier = 2.0,
                                               .max_open_s = 3.0,
                                               .jitter = 0.0});
  breaker.record_failure(at(0.0));
  EXPECT_EQ(breaker.current_cooldown_s(), 1.0);
  EXPECT_TRUE(breaker.allow(at(1.1)));  // probe
  breaker.record_failure(at(1.1));      // probe failed: re-open, 2 s
  EXPECT_EQ(breaker.current_cooldown_s(), 2.0);
  EXPECT_FALSE(breaker.allow(at(2.5)));
  EXPECT_TRUE(breaker.allow(at(3.2)));
  breaker.record_failure(at(3.2));  // 1 * 2^2 = 4 s, capped at 3 s
  EXPECT_EQ(breaker.current_cooldown_s(), 3.0);
  EXPECT_EQ(breaker.opened(), 3u);

  // A successful probe fully resets the backoff ladder.
  EXPECT_TRUE(breaker.allow(at(6.3)));
  breaker.record_success();
  EXPECT_EQ(breaker.state(), guard::Breaker::State::Closed);
  breaker.record_failure(at(7.0));
  EXPECT_EQ(breaker.current_cooldown_s(), 1.0);
}

TEST(Breaker, JitteredCooldownsAreSeedDeterministicAndBounded) {
  const guard::BreakerOptions options{.failure_threshold = 1,
                                      .open_s = 1.0,
                                      .jitter = 0.5,
                                      .seed = 42};
  guard::Breaker a(options);
  guard::Breaker b(options);
  a.record_failure(at(0.0));
  b.record_failure(at(0.0));
  EXPECT_EQ(a.current_cooldown_s(), b.current_cooldown_s());
  EXPECT_LE(a.current_cooldown_s(), options.open_s);
  EXPECT_GE(a.current_cooldown_s(), options.open_s * (1.0 - options.jitter));
}

// ---- engine admission under a budget --------------------------------------

TEST(EngineShed, BatchIsShedOutrightWhenTheBudgetCannotFitIt) {
  obs::Registry::global().reset();
  guard::Budget budget(64);  // nothing real fits in 64 bytes
  lm::TransformerLm model(tiny_config(), 21);
  serve::TransformerBatchDecoder decoder(model, 2);
  serve::EngineConfig config;
  config.budget = &budget;
  serve::Engine engine(decoder, config);

  const auto result =
      engine.submit(greedy_request({5, 6, 7}, 2, serve::Priority::Batch))
          .get();
  EXPECT_EQ(result.status, serve::RequestStatus::Shed);
  EXPECT_GE(budget.denied(), 1u);
  EXPECT_GE(obs::Registry::global().counter("guard.shed.batch").value(), 1u);
  engine.shutdown();
  decoder.bind_budget(nullptr);
}

TEST(EngineShed, IdleNormalThatCanNeverFitIsShedNotParkedForever) {
  guard::Budget budget(64);
  lm::TransformerLm model(tiny_config(), 21);
  serve::TransformerBatchDecoder decoder(model, 2);
  serve::EngineConfig config;
  config.budget = &budget;
  config.queue_slo_s = 60.0;  // the SLO is NOT what sheds it here
  serve::Engine engine(decoder, config);

  const auto result =
      engine.submit(greedy_request({5, 6, 7}, 2, serve::Priority::Normal))
          .get();
  // With nothing active to wait out, parking would be a livelock.
  EXPECT_EQ(result.status, serve::RequestStatus::Shed);
  engine.shutdown();
  decoder.bind_budget(nullptr);
}

TEST(EngineShed, HighEvictsInFlightBatchWorkToFit) {
  obs::Registry::global().reset();
  lm::TransformerLm model(tiny_config(), 21);
  serve::TransformerBatchDecoder inner(model, 2);
  // Wedge the Batch request inside its prefill so it is provably active
  // (its reservation held) when the High request arrives.
  fault::FaultEvent wedge;
  wedge.op = 0;
  wedge.kind = fault::FaultKind::QueuePressure;
  wedge.delay_s = 0.15;
  fault::FaultyDecoder decoder(inner,
                               fault::FaultPlan::from_events({wedge}));

  // Budget fits the big Batch request alone (cost 39120: 3+40 tokens at
  // 512 bytes/token, scratch slack, and two 16-token pages of paging
  // slack) but not Batch + High (cost 19664) together.
  guard::Budget budget(40000);
  serve::EngineConfig config;
  config.max_batch = 2;
  config.budget = &budget;
  serve::Engine engine(decoder, config);

  auto batch =
      engine.submit(greedy_request({5, 6, 7}, 40, serve::Priority::Batch));
  while (decoder.injector().ops() < 1) {
  }
  auto high =
      engine.submit(greedy_request({8, 9, 10}, 2, serve::Priority::High));

  EXPECT_EQ(batch.get().status, serve::RequestStatus::Shed);
  EXPECT_EQ(high.get().status, serve::RequestStatus::Ok);
  EXPECT_GE(obs::Registry::global().counter("guard.shed.batch").value(), 1u);
  EXPECT_EQ(obs::Registry::global().counter("guard.shed.high").value(), 0u);
  engine.shutdown();
  inner.bind_budget(nullptr);
}

TEST(EngineShed, FullQueueDisplacementShedsTheLowestQueuedClass) {
  lm::TransformerLm model(tiny_config(), 21);
  serve::TransformerBatchDecoder inner(model, 1);
  fault::FaultEvent wedge;
  wedge.op = 0;
  wedge.kind = fault::FaultKind::QueuePressure;
  wedge.delay_s = 0.15;
  fault::FaultyDecoder decoder(inner,
                               fault::FaultPlan::from_events({wedge}));
  serve::EngineConfig config;
  config.max_batch = 1;
  config.queue_capacity = 1;
  serve::Engine engine(decoder, config);

  // A wedged in prefill; B fills the one queue slot.
  auto a = engine.submit(greedy_request({5, 6, 7}, 2, serve::Priority::Normal));
  while (decoder.injector().ops() < 1) {
  }
  auto b = engine.submit(greedy_request({8, 9, 10}, 2, serve::Priority::Batch));
  // High outranks the queued Batch entry: B is displaced (Shed, not
  // QueueFull — it lost its slot to policy, not capacity).
  auto c = engine.submit(greedy_request({11, 12, 13}, 2, serve::Priority::High));
  EXPECT_EQ(b.get().status, serve::RequestStatus::Shed);
  // An equal-or-lower submit against the refilled queue still bounces.
  auto d = engine.submit(greedy_request({14, 15, 16}, 2, serve::Priority::Batch));
  EXPECT_EQ(d.get().status, serve::RequestStatus::QueueFull);

  EXPECT_EQ(a.get().status, serve::RequestStatus::Ok);
  EXPECT_EQ(c.get().status, serve::RequestStatus::Ok);
}

TEST(EngineShed, BudgetedServingStaysBitIdenticalAndSettlesToZero) {
  guard::Budget budget(1u << 20);
  lm::TransformerLm model(tiny_config(), 21);
  serve::TransformerBatchDecoder decoder(model, 2);
  serve::EngineConfig config;
  config.budget = &budget;

  const std::vector<int> prompt = {5, 9, 14};
  lm::GenerateOptions options;
  options.sampler.temperature = 0.0;
  options.max_tokens = 6;
  const auto expected = lm::generate(model, prompt, options);
  {
    serve::Engine engine(decoder, config);
    serve::Request request;
    request.prompt = prompt;
    request.options = options;
    const auto result = engine.submit(std::move(request)).get();
    ASSERT_EQ(result.status, serve::RequestStatus::Ok);
    // Accounting must not perturb the numerics: same tokens as the serial
    // path, with the KV growth visible on the meter.
    EXPECT_EQ(result.generation.tokens, expected.tokens);
    EXPECT_GT(budget.accounted_peak(), 0u);
  }
  decoder.bind_budget(nullptr);
  // Every reservation released, every allocation uncharged.
  EXPECT_EQ(budget.reserved(), 0u);
  EXPECT_EQ(budget.accounted(), 0u);
}

// ---- RetryClient + Breaker ------------------------------------------------

TEST(RetryBreaker, OpenBreakerShortCircuitsWithoutHidingRealFailures) {
  obs::Registry::global().reset();
  lm::TransformerLm model(tiny_config(), 5);
  serve::TransformerBatchDecoder inner(model, 1);
  fault::FaultPlanOptions always_throw;
  always_throw.horizon = 64;
  always_throw.p_throw = 1.0;
  always_throw.p_nan = 0.0;
  always_throw.p_inf = 0.0;
  always_throw.p_delay = 0.0;
  fault::FaultyDecoder decoder(inner,
                               fault::FaultPlan::from_seed(0, always_throw));
  serve::Engine engine(decoder);

  guard::Breaker breaker(guard::BreakerOptions{
      .failure_threshold = 1, .open_s = 60.0, .jitter = 0.0});
  serve::RetryOptions options;
  options.max_attempts = 3;
  options.base_delay_s = 0.001;
  options.breaker = &breaker;
  serve::RetryClient retry(engine, options);

  // First call: the real attempt fails, trips the breaker — and the caller
  // still sees the truthful EngineError, not a masking BreakerOpen.
  const auto first = retry.generate(greedy_request({5, 6, 7}, 2,
                                                   serve::Priority::Normal));
  EXPECT_EQ(first.status, serve::RequestStatus::EngineError);
  EXPECT_EQ(breaker.state(), guard::Breaker::State::Open);

  // Second call: the breaker refuses before the engine ever sees it.
  const auto submitted_before =
      obs::Registry::global().counter("serve.requests_submitted").value();
  const auto second = retry.generate(greedy_request({8, 9, 10}, 2,
                                                    serve::Priority::Normal));
  EXPECT_EQ(second.status, serve::RequestStatus::BreakerOpen);
  EXPECT_EQ(obs::Registry::global().counter("serve.requests_submitted").value(),
            submitted_before);
  EXPECT_GE(obs::Registry::global()
                .counter("serve.rejected.breaker_open")
                .value(),
            1u);
}

TEST(RetryBreaker, GuardStatusesAreNotRetryable) {
  EXPECT_FALSE(serve::is_retryable(serve::RequestStatus::Shed));
  EXPECT_FALSE(serve::is_retryable(serve::RequestStatus::BreakerOpen));
  EXPECT_TRUE(serve::is_retryable(serve::RequestStatus::QueueFull));
  EXPECT_TRUE(serve::is_retryable(serve::RequestStatus::EngineError));
}

}  // namespace
}  // namespace lmpeel
