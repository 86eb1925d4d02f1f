// shard::Router unit tests (fast label): ring affinity stability, routing
// distribution, health probes, breaker-aware failover, graceful drain with
// prefix migration, and the determinism contract — a fleet-served batch is
// bit-identical to the same batch through one bare engine.
#include "shard/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <set>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "lm/transformer.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"

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

/// One engine replica over its own model instance.  Every stack in a test
/// fleet uses the same (config, seed), so weights are identical — the
/// precondition the router's failover determinism rests on.
struct Stack {
  explicit Stack(std::uint64_t seed = 17)
      : model(tiny_config(), seed),
        cache(model),
        decoder(model, /*slots=*/2) {
    decoder.set_prefix_cache(&cache);
    serve::EngineConfig config;
    config.max_batch = 2;
    config.queue_capacity = 16;
    engine = std::make_unique<serve::Engine>(decoder, config);
  }

  lm::TransformerLm model;
  cache::PrefixCache cache;
  serve::TransformerBatchDecoder decoder;
  std::unique_ptr<serve::Engine> engine;
};

struct Fleet {
  explicit Fleet(std::size_t n, RouterConfig config = {}) {
    for (std::size_t i = 0; i < n; ++i) {
      stacks.push_back(std::make_unique<Stack>());
    }
    std::vector<Replica> replicas;
    for (auto& stack : stacks) {
      replicas.push_back(Replica{stack->engine.get(), &stack->cache, "", {}});
    }
    router = std::make_unique<Router>(std::move(replicas), config);
  }

  std::vector<std::unique_ptr<Stack>> stacks;
  std::unique_ptr<Router> router;
};

serve::Request campaign_request(const std::vector<int>& prefix,
                                std::size_t salt) {
  serve::Request request;
  request.prompt = prefix;
  request.prompt.push_back(static_cast<int>(5 + salt % 40));
  request.prompt.push_back(static_cast<int>(7 + salt % 30));
  request.shared_prefix_tokens = prefix.size();
  request.options.sampler.temperature = 0.0;
  request.options.max_tokens = 3;
  request.options.seed = salt;
  return request;
}

std::vector<int> prefix_block(std::uint64_t which) {
  std::vector<int> prefix;
  for (std::size_t t = 0; t < 6; ++t) {
    prefix.push_back(static_cast<int>(5 + (which * 11 + t * 3) % 50));
  }
  return prefix;
}

TEST(ShardRing, PreferenceOrderIsDeterministicAndComplete) {
  Fleet fleet(3);
  for (std::uint64_t p = 0; p < 8; ++p) {
    const auto prefix = prefix_block(p);
    const auto order = fleet.router->preference_order(prefix);
    ASSERT_EQ(order.size(), 3u);
    // Every replica appears exactly once: the order doubles as the
    // failover walk, so it must be a permutation.
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(), 3u);
    EXPECT_EQ(order, fleet.router->preference_order(prefix));
  }
}

TEST(ShardRing, DistinctPrefixesSpreadAcrossReplicas) {
  Fleet fleet(3);
  std::set<std::size_t> owners;
  for (std::uint64_t p = 0; p < 16; ++p) {
    owners.insert(fleet.router->preference_order(prefix_block(p)).front());
  }
  // 16 distinct prefixes over 3 replicas x 16 vnodes: all three replicas
  // should own at least one (a single owner would mean the hash is broken).
  EXPECT_GE(owners.size(), 2u);
}

TEST(ShardRouter, RoutesByPrefixAffinity) {
  Fleet fleet(3);
  const auto prefix = prefix_block(1);
  const std::size_t owner = fleet.router->preference_order(prefix).front();
  std::vector<serve::Request> requests;
  for (std::size_t r = 0; r < 6; ++r) {
    requests.push_back(campaign_request(prefix, r));
  }
  const auto results =
      serve::generate_all(*fleet.router, std::move(requests));
  for (const auto& result : results) {
    EXPECT_EQ(result.status, serve::RequestStatus::Ok);
  }
  // Same shared prefix => same replica, every time.
  const auto stats = fleet.router->stats();
  EXPECT_EQ(stats.routed[owner], 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != owner) {
      EXPECT_EQ(stats.routed[i], 0u);
    }
  }
  EXPECT_EQ(stats.failover_attempts, 0u);
}

TEST(ShardRouter, FleetMatchesSingleEngineBitIdentical) {
  // The determinism contract: replica count is invisible in the results.
  const auto make_requests = [] {
    std::vector<serve::Request> requests;
    for (std::uint64_t p = 0; p < 4; ++p) {
      for (std::size_t r = 0; r < 3; ++r) {
        requests.push_back(campaign_request(prefix_block(p), p * 10 + r));
      }
    }
    return requests;
  };

  Stack solo;
  const auto solo_results =
      serve::generate_all(*solo.engine, make_requests());

  Fleet fleet(3);
  const auto fleet_results =
      serve::generate_all(*fleet.router, make_requests());

  ASSERT_EQ(solo_results.size(), fleet_results.size());
  for (std::size_t i = 0; i < solo_results.size(); ++i) {
    ASSERT_EQ(solo_results[i].status, serve::RequestStatus::Ok);
    ASSERT_EQ(fleet_results[i].status, serve::RequestStatus::Ok);
    EXPECT_EQ(solo_results[i].generation.tokens,
              fleet_results[i].generation.tokens)
        << "request " << i;
  }
}

TEST(ShardRouter, ProbeSeesKilledReplicaAsDead) {
  Fleet fleet(3);
  EXPECT_EQ(fleet.router->probe_all(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet.router->probe(i), Health::Healthy);
  }
  fleet.stacks[1]->engine->kill();
  EXPECT_EQ(fleet.router->probe(1), Health::Dead);
  EXPECT_EQ(fleet.router->probe(1), Health::Dead);  // sticky
  EXPECT_EQ(fleet.router->probe_all(), 2u);
  EXPECT_TRUE(fleet.router->accepting());
}

TEST(ShardRouter, FailsOverWhenOwnerDiesMidStream) {
  Fleet fleet(3);
  const auto prefix = prefix_block(2);
  const std::size_t owner = fleet.router->preference_order(prefix).front();

  // Warm the owner so the route is established, then kill it.
  auto warm = fleet.router->submit(campaign_request(prefix, 0)).get();
  ASSERT_EQ(warm.status, serve::RequestStatus::Ok);
  fleet.stacks[owner]->engine->kill();

  // The next requests re-route (probe skips the dead owner) and still
  // produce the bit-identical answer a healthy fleet would have.
  Stack reference;
  for (std::size_t r = 1; r < 4; ++r) {
    auto served = fleet.router->submit(campaign_request(prefix, r)).get();
    ASSERT_EQ(served.status, serve::RequestStatus::Ok);
    auto expected =
        reference.engine->submit(campaign_request(prefix, r)).get();
    ASSERT_EQ(expected.status, serve::RequestStatus::Ok);
    EXPECT_EQ(served.generation.tokens, expected.generation.tokens);
  }
  EXPECT_EQ(fleet.router->probe(owner), Health::Dead);
}

TEST(ShardRouter, AllReplicasDeadResolvesShutDownNotEngineError) {
  Fleet fleet(2);
  for (auto& stack : fleet.stacks) stack->engine->kill();
  auto result =
      fleet.router->submit(campaign_request(prefix_block(0), 1)).get();
  // ShutDown is the truthful fleet status; EngineError must never leak
  // past the router while it owns the failover contract.
  EXPECT_EQ(result.status, serve::RequestStatus::ShutDown);
  EXPECT_FALSE(fleet.router->accepting());
}

TEST(ShardRouter, DrainMigratesPrefixesToSuccessor) {
  Fleet fleet(3);
  const auto prefix = prefix_block(3);
  const auto order = fleet.router->preference_order(prefix);
  const std::size_t owner = order.front();

  // Warm the owner's cache with the campaign prefix.
  for (std::size_t r = 0; r < 3; ++r) {
    auto result = fleet.router->submit(campaign_request(prefix, r)).get();
    ASSERT_EQ(result.status, serve::RequestStatus::Ok);
  }
  ASSERT_GT(fleet.stacks[owner]->cache.snapshot_prefixes().size(), 0u);

  const std::size_t migrated = fleet.router->drain(owner);
  EXPECT_GE(migrated, 1u);
  EXPECT_EQ(fleet.router->probe(owner), Health::Draining);  // sticky

  const auto stats = fleet.router->stats();
  EXPECT_EQ(stats.drains, 1u);
  EXPECT_EQ(stats.migrated_prefixes, migrated);

  // The fleet keeps serving the prefix without the drained owner, still
  // bit-identical to a fresh single engine.
  Stack reference;
  auto served = fleet.router->submit(campaign_request(prefix, 9)).get();
  ASSERT_EQ(served.status, serve::RequestStatus::Ok);
  auto expected =
      reference.engine->submit(campaign_request(prefix, 9)).get();
  EXPECT_EQ(served.generation.tokens, expected.generation.tokens);
  EXPECT_EQ(fleet.router->stats().routed[owner], 3u);  // nothing new routed
}

TEST(ShardRouter, SnapshotPrefixesReturnsTokenIdsLongestFirst) {
  Stack stack;
  const auto prefix = prefix_block(4);
  auto result = stack.engine->submit(campaign_request(prefix, 0)).get();
  ASSERT_EQ(result.status, serve::RequestStatus::Ok);
  const auto prefixes = stack.cache.snapshot_prefixes();
  ASSERT_GE(prefixes.size(), 1u);
  for (std::size_t i = 1; i < prefixes.size(); ++i) {
    EXPECT_GE(prefixes[i - 1].size(), prefixes[i].size());
  }
  // The cached leaf path is the inserted prefix itself — token ids, no KV.
  EXPECT_EQ(prefixes.front(), prefix);
}

TEST(ShardRouter, SubmitAfterDestructionWindowRefusesCleanly) {
  Fleet fleet(2);
  // Submit a burst, destroy the router while results are in flight: every
  // future must still resolve (the pool drains before ~Router returns).
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t r = 0; r < 8; ++r) {
    futures.push_back(
        fleet.router->submit(campaign_request(prefix_block(r % 2), r)));
  }
  fleet.router.reset();
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_TRUE(result.status == serve::RequestStatus::Ok ||
                result.status == serve::RequestStatus::ShutDown)
        << serve::status_name(result.status);
  }
}

}  // namespace
}  // namespace lmpeel::shard
