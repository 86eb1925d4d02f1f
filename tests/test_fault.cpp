// Tests for the fault-injection subsystem (DESIGN.md §10): plan
// determinism, per-fault-class containment in the serve engine, retry
// backoff math, chaos-run reproducibility, and crash-safe campaign
// checkpoint/resume.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "fault/faulty_decoder.hpp"
#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "serve/retry.hpp"
#include "tune/annealing_tuner.hpp"
#include "tune/checkpoint.hpp"
#include "tune/random_search_tuner.hpp"
#include "util/rng.hpp"

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

serve::Request greedy_request(std::vector<int> prompt,
                              std::size_t max_tokens) {
  serve::Request request;
  request.prompt = std::move(prompt);
  request.options.sampler.temperature = 0.0;
  request.options.max_tokens = max_tokens;
  return request;
}

fault::FaultEvent event_at(std::size_t op, fault::FaultKind kind,
                           double delay_s = 0.0) {
  fault::FaultEvent event;
  event.op = op;
  event.kind = kind;
  event.delay_s = delay_s;
  return event;
}

TEST(FaultPlan, FromSeedIsDeterministic) {
  fault::FaultPlanOptions options;
  options.horizon = 128;
  const auto a = fault::FaultPlan::from_seed(42, options);
  const auto b = fault::FaultPlan::from_seed(42, options);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].op, b.events()[i].op);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].row, b.events()[i].row);
    EXPECT_EQ(a.events()[i].delay_s, b.events()[i].delay_s);
  }
  // A different seed re-rolls the schedule.
  EXPECT_NE(a.to_string(), fault::FaultPlan::from_seed(43, options).to_string());
}

TEST(FaultPlan, ProbabilityOneCoversEveryOp) {
  fault::FaultPlanOptions options;
  options.horizon = 32;
  options.p_throw = 1.0;
  options.p_nan = 0.0;
  options.p_inf = 0.0;
  options.p_delay = 0.0;
  const auto plan = fault::FaultPlan::from_seed(1, options);
  ASSERT_EQ(plan.events().size(), options.horizon);
  for (std::size_t op = 0; op < options.horizon; ++op) {
    const auto event = plan.at(op);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->kind, fault::FaultKind::StepThrow);
  }
}

TEST(FaultPlan, FromEventsSortsAndKeepsFirstPerOp) {
  const auto plan = fault::FaultPlan::from_events(
      {event_at(9, fault::FaultKind::NanLogits),
       event_at(2, fault::FaultKind::StepThrow),
       event_at(9, fault::FaultKind::InfLogits)});
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].op, 2u);
  EXPECT_EQ(plan.events()[1].op, 9u);
  EXPECT_EQ(plan.events()[1].kind, fault::FaultKind::NanLogits);
  EXPECT_FALSE(plan.at(0).has_value());
}

TEST(FaultPlan, WithEventReplacesTheOp) {
  const auto base = fault::FaultPlan::from_events(
      {event_at(0, fault::FaultKind::StepThrow),
       event_at(3, fault::FaultKind::NanLogits)});
  const auto pinned =
      base.with_event(event_at(0, fault::FaultKind::QueuePressure, 0.5));
  ASSERT_EQ(pinned.events().size(), 2u);
  EXPECT_EQ(pinned.at(0)->kind, fault::FaultKind::QueuePressure);
  EXPECT_EQ(pinned.at(0)->delay_s, 0.5);
  EXPECT_EQ(pinned.at(3)->kind, fault::FaultKind::NanLogits);
}

TEST(FaultInjector, CountsOpsAndInjections) {
  fault::FaultInjector injector(fault::FaultPlan::from_events(
      {event_at(1, fault::FaultKind::NanLogits)}));
  EXPECT_FALSE(injector.next_op().has_value());  // op 0
  const auto hit = injector.next_op();           // op 1
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->op, 1u);
  EXPECT_FALSE(injector.next_op().has_value());  // op 2, past the plan
  EXPECT_EQ(injector.ops(), 3u);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(injector.injected(fault::FaultKind::NanLogits), 1u);
  EXPECT_EQ(injector.injected(fault::FaultKind::StepThrow), 0u);
}

// Containment harness: one fault class at a known op against a single
// request, then a clean request through the same engine that must match
// direct lm::generate token for token.  Op numbering for one request at a
// time: op 0 = admission (start_chunked; prefill chunks consume no op),
// op k = k-th decode step.
class FaultContainment : public ::testing::Test {
 protected:
  void serve_and_expect(const fault::FaultPlan& plan,
                        serve::RequestStatus expected_first,
                        double step_budget_s = 0.0,
                        std::size_t prefill_chunk_tokens = 32,
                        const std::vector<int>& prompt = {5, 9, 14}) {
    obs::Registry::global().reset();
    lm::TransformerLm model(tiny_config(), 21);
    serve::TransformerBatchDecoder inner(model, 2);
    fault::FaultyDecoder decoder(inner, plan);
    serve::EngineConfig config;
    config.max_batch = 2;
    config.step_budget_s = step_budget_s;
    config.prefill_chunk_tokens = prefill_chunk_tokens;
    serve::Engine engine(decoder, config);

    auto first = serve::generate_sync(engine, prompt,
                                      greedy_request(prompt, 6).options);
    EXPECT_EQ(first.status, expected_first);
    EXPECT_GT(engine.engine_errors(), 0u);
    EXPECT_GT(obs::Registry::global().counter("fault.injected").value(), 0u);
    EXPECT_GT(obs::Registry::global().counter("serve.engine_error").value(),
              0u);

    // The engine must keep serving: a clean request through the same engine
    // is bit-identical to the serial path.
    lm::GenerateOptions options;
    options.sampler.temperature = 0.0;
    options.max_tokens = 6;
    const auto expected = lm::generate(model, prompt, options);
    const auto second = serve::generate_sync(engine, prompt, options);
    ASSERT_EQ(second.status, serve::RequestStatus::Ok);
    EXPECT_EQ(second.generation.tokens, expected.tokens);
  }
};

TEST_F(FaultContainment, PrefillThrowFailsOnlyThatRequest) {
  serve_and_expect(fault::FaultPlan::from_events(
                       {event_at(0, fault::FaultKind::StepThrow)}),
                   serve::RequestStatus::EngineError);
}

TEST_F(FaultContainment, StepThrowFailsTheBatch) {
  serve_and_expect(fault::FaultPlan::from_events(
                       {event_at(1, fault::FaultKind::StepThrow)}),
                   serve::RequestStatus::EngineError);
}

TEST_F(FaultContainment, NanPrefillLogitsAreRejectedBeforeSampling) {
  serve_and_expect(fault::FaultPlan::from_events(
                       {event_at(0, fault::FaultKind::NanLogits)}),
                   serve::RequestStatus::EngineError);
  EXPECT_GT(obs::Registry::global().counter("serve.logits_invalid").value(),
            0u);
}

TEST_F(FaultContainment, InfStepLogitsAreRejectedBeforeSampling) {
  serve_and_expect(fault::FaultPlan::from_events(
                       {event_at(2, fault::FaultKind::InfLogits)}),
                   serve::RequestStatus::EngineError);
  EXPECT_GT(obs::Registry::global().counter("serve.logits_invalid").value(),
            0u);
}

TEST_F(FaultContainment, WatchdogFailsStepsOverTheLatencyBudget) {
  // The budget is generous against a tiny model's real step time (so the
  // follow-up clean request never trips it, sanitizers included) but far
  // under the injected stall.
  serve_and_expect(
      fault::FaultPlan::from_events(
          {event_at(1, fault::FaultKind::StepDelay, /*delay_s=*/0.2)}),
      serve::RequestStatus::EngineError,
      /*step_budget_s=*/0.02);
  EXPECT_GT(obs::Registry::global().counter("serve.step_overrun").value(),
            0u);
}

// A 10-token prompt in 4-token chunks: three chunks per request, and the
// faults scheduled for a request's admission still hit only that request.
const std::vector<int> kTenTokenPrompt = {5, 9, 14, 3, 27, 8, 41, 16, 22, 6};

TEST_F(FaultContainment, NanOnAMultiChunkPrefillPoisonsItsFinalChunk) {
  serve_and_expect(fault::FaultPlan::from_events(
                       {event_at(0, fault::FaultKind::NanLogits)}),
                   serve::RequestStatus::EngineError, /*step_budget_s=*/0.0,
                   /*prefill_chunk_tokens=*/4, kTenTokenPrompt);
  EXPECT_EQ(obs::Registry::global().counter("serve.logits_invalid").value(),
            1u);
  // Both requests prefilled in full.
  EXPECT_EQ(obs::Registry::global().counter("serve.prefill_stage.chunks")
                .value(), 6u);
}

TEST_F(FaultContainment, ThrowOnAMultiChunkAdmissionFailsOnlyThatRequest) {
  serve_and_expect(fault::FaultPlan::from_events(
                       {event_at(0, fault::FaultKind::StepThrow)}),
                   serve::RequestStatus::EngineError, /*step_budget_s=*/0.0,
                   /*prefill_chunk_tokens=*/4, kTenTokenPrompt);
  // Only the clean request prefilled.
  EXPECT_EQ(obs::Registry::global().counter("serve.prefill_stage.chunks")
                .value(), 3u);
}

// Budgeted engines price each request with the decoder's cost slack; the
// wrapper must report the paged decoder's, not the zero default.
TEST(FaultyDecoder, ReportsThePagedInnerDecodersCostSlack) {
  lm::TransformerLm model(tiny_config(), 21);
  serve::TransformerBatchDecoder inner(model, 2);
  const fault::FaultyDecoder decoder(inner, fault::FaultPlan{});
  EXPECT_GT(inner.cost_slack_bytes(), 0u);
  EXPECT_EQ(decoder.cost_slack_bytes(), inner.cost_slack_bytes());
}

TEST(RetryClient, BackoffMathIsDeterministicAndBounded) {
  lm::TransformerLm model(tiny_config(), 3);
  serve::TransformerBatchDecoder decoder(model, 1);
  serve::Engine engine(decoder);

  serve::RetryOptions options;
  options.base_delay_s = 0.01;
  options.multiplier = 2.0;
  options.max_delay_s = 0.05;
  options.jitter = 0.5;
  options.seed = 99;
  serve::RetryClient a(engine, options);
  serve::RetryClient b(engine, options);
  for (std::size_t retry = 0; retry < 8; ++retry) {
    const double da = a.backoff_delay_s(retry);
    // Seeded jitter: two clients with the same seed draw the same schedule.
    EXPECT_EQ(da, b.backoff_delay_s(retry));
    const double raw = std::min(options.max_delay_s,
                                options.base_delay_s * std::pow(2.0, retry));
    EXPECT_LE(da, raw);
    EXPECT_GE(da, raw * (1.0 - options.jitter));
  }

  // Without jitter the schedule is the closed-form capped exponential.
  options.jitter = 0.0;
  serve::RetryClient exact(engine, options);
  EXPECT_EQ(exact.backoff_delay_s(0), 0.01);
  EXPECT_EQ(exact.backoff_delay_s(1), 0.02);
  EXPECT_EQ(exact.backoff_delay_s(2), 0.04);
  EXPECT_EQ(exact.backoff_delay_s(3), 0.05);  // capped
  EXPECT_EQ(exact.backoff_delay_s(9), 0.05);
}

// The fleet anti-lock-step property (DESIGN.md §15): generate() draws
// jitter from (seed, TraceId), so two identically-seeded clients whose
// requests carry different trace ids back off on *different* schedules —
// they never hammer a recovering replica in unison — while any one
// request's schedule stays exactly reproducible from (seed, trace).
TEST(RetryClient, PerRequestJitterStreamsDecorrelateSameSeedClients) {
  lm::TransformerLm model(tiny_config(), 3);
  serve::TransformerBatchDecoder decoder(model, 1);
  serve::Engine engine(decoder);

  serve::RetryOptions options;
  options.base_delay_s = 0.01;
  options.multiplier = 2.0;
  options.max_delay_s = 1.0;  // uncapped over 6 retries: jitter visible
  options.jitter = 0.5;
  options.seed = 99;
  serve::RetryClient a(engine, options);
  serve::RetryClient b(engine, options);

  const obs::TraceId trace_a = obs::mint_trace_id();
  const obs::TraceId trace_b = obs::mint_trace_id();
  ASSERT_NE(trace_a, trace_b);

  const auto schedule = [&](serve::RetryClient& client, obs::TraceId trace) {
    util::Rng rng = client.jitter_stream(trace);
    std::vector<double> delays;
    for (std::size_t retry = 0; retry < 6; ++retry) {
      delays.push_back(client.backoff_delay_s(retry, rng));
    }
    return delays;
  };

  // Reproducible: the same (seed, trace) pair yields the same schedule from
  // either client object.
  EXPECT_EQ(schedule(a, trace_a), schedule(a, trace_a));
  EXPECT_EQ(schedule(a, trace_a), schedule(b, trace_a));

  // Decorrelated: different requests (trace ids) draw different schedules,
  // even from two clients configured identically.
  EXPECT_NE(schedule(a, trace_a), schedule(b, trace_b));
  EXPECT_NE(schedule(a, trace_a), schedule(a, trace_b));
}

// Seeded replica-level fault plans: kill/stall events are drawn only when
// their probabilities are set, land in [0, row_range) and replay
// identically from the same seed — the property the fleet soak's chaos
// controller and the chaos-matrix tests rest on.
TEST(FaultPlanReplica, SeededReplicaEventsAreDeterministicAndBounded) {
  fault::FaultPlanOptions options;
  options.horizon = 256;
  options.p_throw = 0.0;
  options.p_nan = 0.0;
  options.p_inf = 0.0;
  options.p_delay = 0.0;
  options.p_replica_kill = 0.04;
  options.p_replica_stall = 0.04;
  options.replica_stall_s = 0.05;
  options.row_range = 4;

  const auto plan = fault::FaultPlan::from_seed(7, options);
  const auto replay = fault::FaultPlan::from_seed(7, options);
  ASSERT_FALSE(plan.empty());
  ASSERT_EQ(plan.events().size(), replay.events().size());
  bool saw_kill = false;
  bool saw_stall = false;
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    const auto& event = plan.events()[i];
    EXPECT_EQ(event.op, replay.events()[i].op);
    EXPECT_EQ(event.kind, replay.events()[i].kind);
    EXPECT_EQ(event.row, replay.events()[i].row);
    EXPECT_LT(event.op, options.horizon);
    EXPECT_LT(event.row, options.row_range);
    // Decoder-fault probabilities are zero, so only replica kinds appear.
    EXPECT_GE(static_cast<std::uint8_t>(event.kind),
              static_cast<std::uint8_t>(fault::kFirstReplicaFault));
    saw_kill |= event.kind == fault::FaultKind::ReplicaKill;
    saw_stall |= event.kind == fault::FaultKind::ReplicaStall;
    if (event.kind == fault::FaultKind::ReplicaStall) {
      EXPECT_EQ(event.delay_s, options.replica_stall_s);
    }
  }
  EXPECT_TRUE(saw_kill);
  EXPECT_TRUE(saw_stall);

  // A different seed draws a different schedule.
  const auto other = fault::FaultPlan::from_seed(8, options);
  const bool identical =
      plan.events().size() == other.events().size() &&
      [&] {
        for (std::size_t i = 0; i < plan.events().size(); ++i) {
          if (plan.events()[i].op != other.events()[i].op ||
              plan.events()[i].kind != other.events()[i].kind ||
              plan.events()[i].row != other.events()[i].row) {
            return false;
          }
        }
        return true;
      }();
  EXPECT_FALSE(identical);
}

TEST(RetryClient, QueueFullRetriesUntilServed) {
  obs::Registry::global().reset();
  lm::TransformerLm model(tiny_config(), 5);
  serve::TransformerBatchDecoder inner(model, 2);
  // Wedge the decoder inside the first request's prefill so the
  // one-deep admission queue is provably full when the probe arrives.
  fault::FaultyDecoder decoder(
      inner, fault::FaultPlan::from_events(
                 {event_at(0, fault::FaultKind::QueuePressure, 0.05)}));
  serve::EngineConfig config;
  config.max_batch = 2;
  config.queue_capacity = 1;
  serve::Engine engine(decoder, config);

  auto wedged = engine.submit(greedy_request({5, 6, 7}, 2));
  while (decoder.injector().ops() < 1) {
  }
  auto queued = engine.submit(greedy_request({8, 9, 10}, 2));

  serve::RetryOptions options;
  options.max_attempts = 12;
  options.base_delay_s = 0.01;
  options.jitter = 0.0;
  serve::RetryClient retry(engine, options);
  const auto result = retry.generate(greedy_request({11, 12, 13}, 2));
  EXPECT_EQ(result.status, serve::RequestStatus::Ok);
  EXPECT_GE(retry.retries(), 1u);
  EXPECT_GE(obs::Registry::global().counter("serve.retry").value(), 1u);
  EXPECT_EQ(wedged.get().status, serve::RequestStatus::Ok);
  EXPECT_EQ(queued.get().status, serve::RequestStatus::Ok);
}

TEST(RetryClient, GivesUpAfterMaxAttempts) {
  obs::Registry::global().reset();
  lm::TransformerLm model(tiny_config(), 5);
  serve::TransformerBatchDecoder inner(model, 1);
  fault::FaultPlanOptions always_throw;
  always_throw.horizon = 64;
  always_throw.p_throw = 1.0;
  always_throw.p_nan = 0.0;
  always_throw.p_inf = 0.0;
  always_throw.p_delay = 0.0;
  fault::FaultyDecoder decoder(
      inner, fault::FaultPlan::from_seed(0, always_throw));
  serve::Engine engine(decoder);

  serve::RetryOptions options;
  options.max_attempts = 3;
  options.base_delay_s = 0.001;
  serve::RetryClient retry(engine, options);
  const auto result = retry.generate(greedy_request({5, 6, 7}, 2));
  EXPECT_EQ(result.status, serve::RequestStatus::EngineError);
  EXPECT_EQ(retry.retries(), 2u);
  EXPECT_EQ(obs::Registry::global().counter("serve.retry").value(), 2u);
}

// The ISSUE's chaos acceptance: a seeded schedule mixing decoder throws,
// NaN/Inf rows and queue saturation into a 32-request run leaves the
// engine serving — every request resolves, nothing hangs, and the same
// seed reproduces the same per-request statuses.
TEST(Chaos, SameSeedReproducesSamePerRequestStatuses) {
  lm::TransformerLm model(tiny_config(), 11);
  fault::ChaosOptions options;
  options.seed = 7;
  options.requests = 32;
  options.wedge_s = 0.1;

  serve::TransformerBatchDecoder decoder_a(model, options.max_batch);
  const auto a = fault::run_chaos(decoder_a, options);
  ASSERT_EQ(a.statuses.size(), options.requests);
  EXPECT_TRUE(a.all_resolved);
  EXPECT_TRUE(a.survived());
  EXPECT_EQ(a.probe_status, serve::RequestStatus::Ok);
  // The forced wedge saturates the bounded queue: shedding must show up.
  EXPECT_GT(a.queue_full, 0u);
  EXPECT_GT(a.injected_total, 0u);
  // Every request has a definite status accounted for by the tallies.
  EXPECT_EQ(a.ok + a.queue_full + a.engine_error + a.other,
            options.requests);

  serve::TransformerBatchDecoder decoder_b(model, options.max_batch);
  const auto b = fault::run_chaos(decoder_b, options);
  EXPECT_EQ(a.statuses, b.statuses);
  EXPECT_EQ(a.injected_total, b.injected_total);
  EXPECT_EQ(a.engine_errors, b.engine_errors);
}

class CheckpointFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "lmpeel_test_checkpoint.ckpt";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CheckpointFile, RoundTripsEveryBitOfEveryField) {
  const perf::ConfigSpace space;
  tune::CampaignCheckpoint original;
  original.seed = 0xdeadbeefcafeULL;
  original.size = perf::SizeClass::ML;
  original.propose_rng_state = {1, 0xffffffffffffffffULL, 3, 4};
  original.measure_rng_state = {5, 6, 7, 0x8000000000000000ULL};
  const double runtimes[] = {0.1, 1e-17, 3.141592653589793, 7.25e11};
  double best = runtimes[0];
  for (std::size_t i = 0; i < 4; ++i) {
    perf::Sample s;
    s.config_index = i * 31 + 2;
    s.config = space.at(s.config_index);
    s.runtime = runtimes[i];
    original.evaluated.push_back(s);
    best = std::min(best, runtimes[i]);
    original.best_so_far.push_back(best);
  }

  tune::save_checkpoint(original, path_);
  const auto loaded = tune::load_checkpoint(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, original.seed);
  EXPECT_EQ(loaded->size, original.size);
  EXPECT_EQ(loaded->propose_rng_state, original.propose_rng_state);
  EXPECT_EQ(loaded->measure_rng_state, original.measure_rng_state);
  ASSERT_EQ(loaded->evaluated.size(), original.evaluated.size());
  for (std::size_t i = 0; i < original.evaluated.size(); ++i) {
    EXPECT_EQ(loaded->evaluated[i].config_index,
              original.evaluated[i].config_index);
    EXPECT_EQ(loaded->evaluated[i].config, original.evaluated[i].config);
    // Hexfloat round-trip: exact, not approximate.
    EXPECT_EQ(loaded->evaluated[i].runtime, original.evaluated[i].runtime);
    EXPECT_EQ(loaded->best_so_far[i], original.best_so_far[i]);
  }
}

TEST_F(CheckpointFile, V2HeaderCarriesCrcAndASingleBitFlipRefusesToLoad) {
  tune::CampaignCheckpoint checkpoint;
  checkpoint.seed = 12345;
  perf::Sample s;
  s.config_index = 7;
  s.config = perf::ConfigSpace{}.at(7);
  s.runtime = 0.125;
  checkpoint.evaluated.push_back(s);
  checkpoint.best_so_far.push_back(0.125);
  tune::save_checkpoint(checkpoint, path_);

  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(contents.rfind("lmpeel-campaign-checkpoint v2\ncrc32 ", 0), 0u);
  ASSERT_TRUE(tune::load_checkpoint(path_).has_value());

  // Flip one bit deep in the body — the damage CRC-32 exists to catch.
  std::string damaged = contents;
  damaged[damaged.size() - 2] ^= 0x01;
  {
    std::ofstream out(path_, std::ios::binary);
    out << damaged;
  }
  EXPECT_THROW(tune::load_checkpoint(path_), std::runtime_error);
}

TEST_F(CheckpointFile, V1FilesWithoutCrcRemainLoadable) {
  tune::CampaignCheckpoint checkpoint;
  checkpoint.seed = 99;
  checkpoint.propose_rng_state = {1, 2, 3, 4};
  checkpoint.measure_rng_state = {5, 6, 7, 8};
  tune::save_checkpoint(checkpoint, path_);
  std::string contents;
  {
    std::ifstream in(path_, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  // Rebuild the pre-CRC v1 layout: v1 magic + the body, no crc32 line.
  const std::size_t magic_end = contents.find('\n');
  const std::size_t crc_end = contents.find('\n', magic_end + 1);
  ASSERT_NE(crc_end, std::string::npos);
  {
    std::ofstream out(path_, std::ios::binary);
    out << "lmpeel-campaign-checkpoint v1\n" << contents.substr(crc_end + 1);
  }
  const auto loaded = tune::load_checkpoint(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seed, 99u);
  EXPECT_EQ(loaded->propose_rng_state, checkpoint.propose_rng_state);
  EXPECT_EQ(loaded->measure_rng_state, checkpoint.measure_rng_state);
}

TEST_F(CheckpointFile, CorruptCheckpointIsQuarantinedAndTheCampaignRunsFresh) {
  obs::Registry::global().reset();
  const std::string quarantine = path_ + ".corrupt";
  std::remove(quarantine.c_str());
  {
    std::ofstream out(path_);
    out << "lmpeel-campaign-checkpoint v2\ncrc32 00000000\nseed 1\n";
  }
  tune::RandomSearchTuner tuner;
  tune::CampaignOptions options;
  options.budget = 6;
  options.seed = 9;
  options.checkpoint.path = path_;
  const auto result =
      tune::run_campaign(tuner, perf::Syr2kModel{}, perf::SizeClass::SM,
                         options);
  // Fresh run, full budget — the bad file cost nothing but a rename.
  EXPECT_EQ(result.evaluated.size(), 6u);
  EXPECT_EQ(obs::Registry::global()
                .counter("tune.checkpoint_quarantined")
                .value(),
            1u);
  // The damaged file is preserved for inspection, not destroyed...
  std::ifstream preserved(quarantine);
  EXPECT_TRUE(preserved.good());
  // ...and the campaign left a healthy checkpoint in its place.
  EXPECT_TRUE(tune::load_checkpoint(path_).has_value());
  std::remove(quarantine.c_str());
}

TEST_F(CheckpointFile, MissingFileIsNulloptNotAnError) {
  EXPECT_FALSE(tune::load_checkpoint(path_).has_value());
}

TEST_F(CheckpointFile, MalformedFileThrowsLoudly) {
  {
    std::ofstream out(path_);
    out << "not a checkpoint\n";
  }
  EXPECT_THROW(tune::load_checkpoint(path_), std::runtime_error);

  // A well-formed header with a truncated body must also refuse.
  {
    std::ofstream out(path_);
    out << "lmpeel-campaign-checkpoint v1\nseed 1\nsize SM\nevaluated 3\n";
  }
  EXPECT_THROW(tune::load_checkpoint(path_), std::runtime_error);
}

// The ISSUE's resume acceptance: kill a campaign at evaluation k, resume
// from its checkpoint, and the final CampaignResult is EXACTLY the
// uninterrupted run — same configs, bit-identical runtimes.
class CheckpointResume : public CheckpointFile {
 protected:
  void expect_bit_identical_resume(tune::Tuner& full_tuner,
                                   tune::Tuner& killed_tuner,
                                   tune::Tuner& resumed_tuner) {
    const perf::Syr2kModel model;
    const perf::SizeClass size = perf::SizeClass::SM;

    tune::CampaignOptions uninterrupted;
    uninterrupted.budget = 20;
    uninterrupted.seed = 77;
    const auto expected =
        tune::run_campaign(full_tuner, model, size, uninterrupted);

    // "Kill at k": a budget-7 run with checkpointing stands in for a
    // process that died after its 7th evaluation.
    tune::CampaignOptions killed = uninterrupted;
    killed.budget = 7;
    killed.checkpoint.path = path_;
    tune::run_campaign(killed_tuner, model, size, killed);

    tune::CampaignOptions resumed = uninterrupted;
    resumed.checkpoint.path = path_;
    const auto actual = tune::run_campaign(resumed_tuner, model, size, resumed);

    ASSERT_EQ(actual.evaluated.size(), expected.evaluated.size());
    for (std::size_t i = 0; i < expected.evaluated.size(); ++i) {
      EXPECT_EQ(actual.evaluated[i].config, expected.evaluated[i].config)
          << "evaluation " << i;
      EXPECT_EQ(actual.evaluated[i].config_index,
                expected.evaluated[i].config_index);
      EXPECT_EQ(actual.evaluated[i].runtime, expected.evaluated[i].runtime)
          << "evaluation " << i;
      EXPECT_EQ(actual.best_so_far[i], expected.best_so_far[i]);
    }
    EXPECT_EQ(actual.best_config(), expected.best_config());
    EXPECT_EQ(actual.best_runtime(), expected.best_runtime());
  }
};

TEST_F(CheckpointResume, RandomSearchResumesBitIdentically) {
  tune::RandomSearchTuner full, killed, resumed;
  expect_bit_identical_resume(full, killed, resumed);
}

TEST_F(CheckpointResume, StatefulAnnealingResumesBitIdentically) {
  // AnnealingTuner carries internal state (current point, temperature);
  // resume replays the recorded history to rebuild it exactly.
  tune::AnnealingTuner full, killed, resumed;
  expect_bit_identical_resume(full, killed, resumed);
}

TEST_F(CheckpointResume, ResumeAtFullBudgetRerunsNothing) {
  tune::RandomSearchTuner first, second;
  const perf::Syr2kModel model;
  tune::CampaignOptions options;
  options.budget = 10;
  options.seed = 5;
  options.checkpoint.path = path_;
  const auto a =
      tune::run_campaign(first, model, perf::SizeClass::SM, options);
  obs::Registry::global().reset();
  const auto b =
      tune::run_campaign(second, model, perf::SizeClass::SM, options);
  EXPECT_EQ(obs::Registry::global().counter("tune.evaluations").value(), 0u);
  ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    EXPECT_EQ(a.evaluated[i].runtime, b.evaluated[i].runtime);
  }
}

TEST_F(CheckpointResume, CheckpointWriteCadenceIsObservable) {
  obs::Registry::global().reset();
  tune::RandomSearchTuner tuner;
  tune::CampaignOptions options;
  options.budget = 10;
  options.seed = 3;
  options.checkpoint.path = path_;
  options.checkpoint.every = 4;
  tune::run_campaign(tuner, perf::Syr2kModel{}, perf::SizeClass::SM, options);
  // Writes at evaluations 4 and 8, plus the final-state write.
  EXPECT_EQ(obs::Registry::global().counter("tune.checkpoint_write").value(),
            3u);
}

}  // namespace
}  // namespace lmpeel
