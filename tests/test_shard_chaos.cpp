// Chaos matrix for the shard router (fast label, run under ASan/TSan in
// the verify recipe): a seeded replica kill at every lifecycle phase —
// admission, prefill, decode, drain — crossed with every priority class.
// The contract under test: no hang (every future resolves), and no
// EngineError leak — requests end Ok, Shed, Cancelled or ShutDown; the
// router's failover path absorbs the replica-level failure.
#include "shard/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "lm/transformer.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "tune/campaign.hpp"
#include "tune/llambo_tuner.hpp"

namespace lmpeel::shard {
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

struct Stack {
  Stack()
      : model(tiny_config(), 17), cache(model), decoder(model, /*slots=*/2) {
    decoder.set_prefix_cache(&cache);
    serve::EngineConfig config;
    config.max_batch = 2;
    config.queue_capacity = 32;
    // Chunked prefill so a kill can land mid-prefill, not just between
    // whole admissions.
    config.prefill_chunk_tokens = 4;
    engine = std::make_unique<serve::Engine>(decoder, config);
  }

  lm::TransformerLm model;
  cache::PrefixCache cache;
  serve::TransformerBatchDecoder decoder;
  std::unique_ptr<serve::Engine> engine;
};

enum class KillPhase { Admission, Prefill, Decode, Drain };

const char* phase_name(KillPhase phase) {
  switch (phase) {
    case KillPhase::Admission: return "admission";
    case KillPhase::Prefill: return "prefill";
    case KillPhase::Decode: return "decode";
    case KillPhase::Drain: return "drain";
  }
  return "?";
}

serve::Request chaos_request(serve::Priority priority, std::size_t salt) {
  serve::Request request;
  // A shared 6-token prefix (routing affinity) + unique tail; prompt long
  // enough that chunked prefill spans several ticks.
  for (std::size_t t = 0; t < 6; ++t) {
    request.prompt.push_back(static_cast<int>(5 + t * 3));
  }
  for (std::size_t t = 0; t < 10; ++t) {
    request.prompt.push_back(static_cast<int>(5 + (salt * 7 + t) % 50));
  }
  request.shared_prefix_tokens = 6;
  request.options.sampler.temperature = 0.0;
  request.options.max_tokens = 6;
  request.options.seed = salt;
  request.priority = priority;
  return request;
}

/// Runs one cell of the matrix: a 3-replica fleet, a stream of requests of
/// `priority`, and one replica killed at `phase`.  Asserts every future
/// resolves with a clean terminal status.
void run_cell(KillPhase phase, serve::Priority priority) {
  SCOPED_TRACE(std::string(phase_name(phase)) + " x priority " +
               std::to_string(static_cast<int>(priority)));
  std::vector<std::unique_ptr<Stack>> stacks;
  for (std::size_t i = 0; i < 3; ++i) {
    stacks.push_back(std::make_unique<Stack>());
  }
  std::vector<Replica> replicas;
  for (auto& stack : stacks) {
    replicas.push_back(Replica{stack->engine.get(), &stack->cache, "", {}});
  }
  Router router(std::move(replicas), {});

  // Which replica owns the shared prefix — the kill that matters most.
  const auto probe_request = chaos_request(priority, 0);
  const std::size_t owner =
      router
          .preference_order(std::span<const int>(
              probe_request.prompt.data(), probe_request.shared_prefix_tokens))
          .front();

  constexpr std::size_t kRequests = 12;
  std::vector<std::future<serve::ServeResult>> futures;

  const auto kill_owner = [&] { stacks[owner]->engine->kill(); };
  switch (phase) {
    case KillPhase::Admission:
      // Dead before anything is submitted: every request must re-route.
      kill_owner();
      for (std::size_t r = 0; r < kRequests; ++r) {
        futures.push_back(router.submit(chaos_request(priority, r)));
      }
      break;
    case KillPhase::Prefill:
    case KillPhase::Decode: {
      for (std::size_t r = 0; r < kRequests; ++r) {
        futures.push_back(router.submit(chaos_request(priority, r)));
      }
      // Prefill: kill as soon as chunked prefill work is visibly queued.
      // Decode: give admitted requests time to reach token generation.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          phase == KillPhase::Prefill ? 1 : 10));
      kill_owner();
      break;
    }
    case KillPhase::Drain: {
      for (std::size_t r = 0; r < kRequests; ++r) {
        futures.push_back(router.submit(chaos_request(priority, r)));
      }
      // Drain the owner (blocks until its in-flight work retires), then
      // kill a *different* replica so the fleet survives both events.
      router.drain(owner);
      stacks[(owner + 1) % 3]->engine->kill();
      break;
    }
  }

  for (auto& future : futures) {
    const auto result = future.get();  // must not hang
    EXPECT_NE(result.status, serve::RequestStatus::EngineError)
        << "EngineError leaked through the router";
    EXPECT_TRUE(result.status == serve::RequestStatus::Ok ||
                result.status == serve::RequestStatus::Shed ||
                result.status == serve::RequestStatus::Cancelled ||
                result.status == serve::RequestStatus::ShutDown)
        << serve::status_name(result.status);
  }
  EXPECT_TRUE(router.accepting());  // >= 1 replica survives every cell
}

TEST(ShardChaos, KillMatrixEveryPhaseTimesEveryPriority) {
  for (const KillPhase phase :
       {KillPhase::Admission, KillPhase::Prefill, KillPhase::Decode,
        KillPhase::Drain}) {
    for (const serve::Priority priority :
         {serve::Priority::High, serve::Priority::Normal,
          serve::Priority::Batch}) {
      run_cell(phase, priority);
    }
  }
}

TEST(ShardChaos, SeededReplicaFaultPlanIsReproducible) {
  fault::FaultPlanOptions options;
  options.horizon = 128;
  options.p_throw = 0.0;
  options.p_nan = 0.0;
  options.p_inf = 0.0;
  options.p_delay = 0.0;
  options.p_replica_kill = 0.05;
  options.p_replica_stall = 0.05;
  options.row_range = 3;
  const auto plan_a = fault::FaultPlan::from_seed(42, options);
  const auto plan_b = fault::FaultPlan::from_seed(42, options);
  ASSERT_FALSE(plan_a.empty());
  ASSERT_EQ(plan_a.events().size(), plan_b.events().size());
  for (std::size_t i = 0; i < plan_a.events().size(); ++i) {
    EXPECT_EQ(plan_a.events()[i].op, plan_b.events()[i].op);
    EXPECT_EQ(plan_a.events()[i].kind, plan_b.events()[i].kind);
    EXPECT_EQ(plan_a.events()[i].row, plan_b.events()[i].row);
    // Only replica-level kinds can be drawn from these probabilities.
    EXPECT_GE(static_cast<std::uint8_t>(plan_a.events()[i].kind),
              static_cast<std::uint8_t>(fault::kFirstReplicaFault));
    EXPECT_LT(plan_a.events()[i].row, 3u);
  }
}

TEST(ShardChaos, RepeatedKillsAcrossFleetStillResolveEverything) {
  // Escalating failure: kill replicas one by one under continuous load;
  // the tail of the stream lands on a shrinking fleet and finally on a
  // dead one — still no hang, still no EngineError.
  std::vector<std::unique_ptr<Stack>> stacks;
  for (std::size_t i = 0; i < 3; ++i) {
    stacks.push_back(std::make_unique<Stack>());
  }
  std::vector<Replica> replicas;
  for (auto& stack : stacks) {
    replicas.push_back(Replica{stack->engine.get(), &stack->cache, "", {}});
  }
  Router router(std::move(replicas), {});

  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t wave = 0; wave < 3; ++wave) {
    for (std::size_t r = 0; r < 6; ++r) {
      futures.push_back(
          router.submit(chaos_request(serve::Priority::Normal, wave * 6 + r)));
    }
    stacks[wave]->engine->kill();
  }
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_NE(result.status, serve::RequestStatus::EngineError);
  }
  EXPECT_FALSE(router.accepting());
}

// ---- the chaos gate: a LLAMBO campaign survives a mid-campaign kill -----

core::Pipeline& pipeline() {
  static core::Pipeline p;
  return p;
}

lm::TransformerConfig campaign_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = pipeline().tokenizer().vocab_size();
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 1;
  cfg.max_seq = 2048;
  return cfg;
}

/// One campaign-scale replica: a transformer big enough to hold LLAMBO's
/// ICL prompts.  Identical (config, seed) everywhere, as always.
struct CampaignStack {
  CampaignStack()
      : model(campaign_config(), /*seed=*/17),
        cache(model),
        decoder(model, /*slots=*/4) {
    decoder.set_prefix_cache(&cache);
    serve::EngineConfig config;
    config.max_batch = 4;
    config.queue_capacity = 32;
    engine = std::make_unique<serve::Engine>(decoder, config);
  }

  lm::TransformerLm model;
  cache::PrefixCache cache;
  serve::TransformerBatchDecoder decoder;
  std::unique_ptr<serve::Engine> engine;
};

/// Delegating tuner that fires `kill` at the start of propose() call
/// number `at` (1-based) — a deterministic mid-campaign fault, unlike a
/// timer-based kill which could race past the campaign entirely.
class KillAtProposal final : public tune::Tuner {
 public:
  KillAtProposal(tune::Tuner& inner, std::size_t at,
                 std::function<void()> kill)
      : inner_(&inner), at_(at), kill_(std::move(kill)) {}

  perf::Syr2kConfig propose(util::Rng& rng) override {
    if (++calls_ == at_) kill_();
    return inner_->propose(rng);
  }
  void observe(const perf::Syr2kConfig& config, double runtime) override {
    inner_->observe(config, runtime);
  }
  std::string name() const override { return inner_->name(); }

 private:
  tune::Tuner* inner_;
  std::size_t at_;
  std::function<void()> kill_;
  std::size_t calls_ = 0;
};

TEST(ShardChaos, LlamboCampaignSurvivesMidCampaignKillBitIdentical) {
  // The acceptance gate (DESIGN.md §15): a LLAMBO campaign routed through
  // a 3-replica fleet, with the replica serving the campaign killed after
  // the first engine-backed proposal, finishes with results bit-identical
  // to the no-fault single-engine run.  Failover recomputes each
  // generation from (request seed, identical weights), so the kill is
  // invisible in the science — only the routing stats betray it.
  tune::CampaignOptions copt;
  copt.budget = 7;  // warmup 4 + 3 LM-backed proposals (kill before #6)
  copt.seed = 11;
  const auto make_options = [](serve::Client* client) {
    tune::LlamboOptions options;
    options.mode = tune::LlamboMode::Discriminative;
    options.candidate_pool = 3;
    options.max_icl = 4;
    options.engine = client;
    return options;
  };

  CampaignStack solo;
  tune::LlamboTuner solo_tuner(solo.model, pipeline().tokenizer(),
                               perf::SizeClass::SM,
                               make_options(solo.engine.get()));
  const auto expected = tune::run_campaign(
      solo_tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);

  std::vector<std::unique_ptr<CampaignStack>> stacks;
  for (std::size_t i = 0; i < 3; ++i) {
    stacks.push_back(std::make_unique<CampaignStack>());
  }
  std::vector<Replica> replicas;
  for (auto& stack : stacks) {
    replicas.push_back(Replica{stack->engine.get(), &stack->cache, "", {}});
  }
  Router router(std::move(replicas), {});
  tune::LlamboTuner fleet_tuner(stacks[0]->model, pipeline().tokenizer(),
                                perf::SizeClass::SM, make_options(&router));
  std::size_t killed = 3;
  KillAtProposal chaos_tuner(fleet_tuner, /*at=*/6, [&] {
    // The busiest replica is the campaign's prefix owner — the kill that
    // actually tests affinity re-routing rather than a cold bystander.
    const auto routed = router.stats().routed;
    const std::size_t owner = static_cast<std::size_t>(
        std::max_element(routed.begin(), routed.end()) - routed.begin());
    EXPECT_GT(routed[owner], 0u);  // the campaign reached the fleet
    stacks[owner]->engine->kill();
    killed = owner;
  });
  const auto survived = tune::run_campaign(
      chaos_tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);

  ASSERT_LT(killed, 3u);  // the kill fired mid-campaign
  EXPECT_EQ(router.probe(killed), Health::Dead);
  EXPECT_TRUE(router.accepting());
  EXPECT_FALSE(fleet_tuner.engine_degraded());  // the fleet kept serving

  ASSERT_EQ(expected.evaluated.size(), survived.evaluated.size());
  for (std::size_t i = 0; i < expected.evaluated.size(); ++i) {
    EXPECT_EQ(expected.evaluated[i].config_index,
              survived.evaluated[i].config_index)
        << "evaluation " << i;
    EXPECT_EQ(expected.evaluated[i].runtime, survived.evaluated[i].runtime)
        << "evaluation " << i;
  }
  ASSERT_EQ(expected.best_so_far.size(), survived.best_so_far.size());
  EXPECT_EQ(expected.best_so_far, survived.best_so_far);
}

}  // namespace
}  // namespace lmpeel::shard
