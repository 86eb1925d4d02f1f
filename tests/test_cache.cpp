// lmpeel::cache — shared-prefix KV cache (DESIGN.md §12).
//
// Covers the three layers of the claim "the cache is a pure accelerator":
//   * lm: copy_prefix forks share pages (a shared page is charged once),
//     a fork across pools copies the exact rows, and prefill_from over a
//     cached prefix reproduces a full prefill bit for bit (EXPECT_EQ on
//     floats, not near);
//   * cache: radix insert / longest-prefix lookup / edge splitting, LRU
//     eviction under a byte budget with pinned nodes spared, and
//     guard::Budget integration (accounted never exceeds the limit);
//   * serve: an engine with the cache attached generates exactly the same
//     tokens as one without, while the hit/saved counters move and every
//     hit is a zero-copy page share.
#include "cache/prefix_cache.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "guard/budget.hpp"
#include "lm/transformer.hpp"
#include "mem/page_pool.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"

namespace lmpeel::cache {
namespace {

lm::TransformerConfig tiny_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = 32;
  cfg.d_model = 16;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  return cfg;
}

/// Key + value row per layer for one token, in bytes.
std::size_t bpt(const lm::TransformerConfig& cfg) {
  return 2 * static_cast<std::size_t>(cfg.n_layer) *
         static_cast<std::size_t>(cfg.d_model) * sizeof(float);
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// ---- KvCache fork / move semantics ---------------------------------------

mem::PagePoolConfig pool_config(const lm::TransformerConfig& cfg,
                                std::size_t page_tokens) {
  mem::PagePoolConfig config;
  config.page_tokens = page_tokens;
  config.n_layer = static_cast<std::size_t>(cfg.n_layer);
  config.d_model = static_cast<std::size_t>(cfg.d_model);
  return config;
}

TEST(KvCacheCopyPrefix, ForksAndAccountsAgainstBudget) {
  lm::TransformerLm model(tiny_config(), /*seed=*/1);
  guard::Budget budget;  // unlimited, meters only
  mem::PagePool pool(pool_config(model.config(), /*page_tokens=*/4));
  pool.bind_budget(&budget);
  const std::size_t page = pool.page_bytes();
  lm::TransformerLm::KvCache a;
  a.attach_pool(&pool);
  const std::vector<int> prompt{3, 1, 4, 1, 5, 9};
  std::vector<float> logits(static_cast<std::size_t>(model.vocab_size()));
  model.prefill(a, prompt, logits);
  // Page-granular: 6 tokens occupy two 4-token pages.
  EXPECT_EQ(a.pages_held(), 2u);
  EXPECT_EQ(budget.accounted(), 2 * page);

  // A fork shares the pages covering its prefix; a shared page is charged
  // once, so the fork costs nothing until it appends.
  lm::TransformerLm::KvCache b;
  EXPECT_TRUE(b.copy_prefix(a, 3));
  EXPECT_EQ(b.length(), 3u);
  EXPECT_EQ(b.pool(), &pool);  // an unbound cache adopts the source's pool
  EXPECT_EQ(b.pages_held(), 1u);
  EXPECT_EQ(budget.accounted(), 2 * page);

  // Length-0 fork: a valid empty cache holding no pages.
  EXPECT_TRUE(b.copy_prefix(a, 0));
  EXPECT_EQ(b.length(), 0u);
  EXPECT_EQ(b.pages_held(), 0u);
  EXPECT_EQ(budget.accounted(), 2 * page);

  // Full-length fork is a clone: decoding one token from each produces
  // identical logits, and the source is untouched.  The first append into
  // the shared boundary page copies it — one more page charged.
  b.copy_prefix(a, a.length());
  EXPECT_EQ(b.length(), a.length());
  EXPECT_EQ(a.length(), prompt.size());
  EXPECT_EQ(budget.accounted(), 2 * page);
  lm::Tensor step_a(1, static_cast<std::size_t>(model.vocab_size()));
  lm::Tensor step_b(1, static_cast<std::size_t>(model.vocab_size()));
  lm::TransformerLm::KvCache* ca[] = {&a};
  lm::TransformerLm::KvCache* cb[] = {&b};
  const int next[] = {7};
  model.decode_batch(ca, next, step_a);
  model.decode_batch(cb, next, step_b);
  EXPECT_EQ(budget.accounted(), 3 * page);
  for (int v = 0; v < model.vocab_size(); ++v) {
    EXPECT_EQ(step_a.row(0)[static_cast<std::size_t>(v)],
              step_b.row(0)[static_cast<std::size_t>(v)]);
  }

  // Across pools nothing can be shared: the rows are copied into pages of
  // the destination's own size (copy_prefix returns false), and they are
  // the same floats, so decoding continues bit-identically.
  mem::PagePool other(pool_config(model.config(), /*page_tokens=*/3));
  lm::TransformerLm::KvCache c;
  c.attach_pool(&other);
  EXPECT_FALSE(c.copy_prefix(b, b.length()));
  EXPECT_EQ(c.pool(), &other);
  EXPECT_EQ(c.length(), 7u);
  EXPECT_EQ(c.pages_held(), 3u);
  EXPECT_EQ(budget.accounted(), 3 * page);  // other pool, other meter
  lm::Tensor step_c(1, static_cast<std::size_t>(model.vocab_size()));
  lm::TransformerLm::KvCache* cc[] = {&c};
  const int next2[] = {2};
  model.decode_batch(cb, next2, step_b);
  model.decode_batch(cc, next2, step_c);
  for (int v = 0; v < model.vocab_size(); ++v) {
    EXPECT_EQ(step_b.row(0)[static_cast<std::size_t>(v)],
              step_c.row(0)[static_cast<std::size_t>(v)]);
  }
}

TEST(KvCacheMove, HandsItsPagesOverExactlyOnce) {
  lm::TransformerLm model(tiny_config(), /*seed=*/1);
  guard::Budget budget;
  mem::PagePool pool(pool_config(model.config(), /*page_tokens=*/4));
  pool.bind_budget(&budget);
  const std::vector<int> prompt{2, 7, 1, 8};
  std::vector<float> logits(static_cast<std::size_t>(model.vocab_size()));
  {
    lm::TransformerLm::KvCache a;
    a.attach_pool(&pool);
    model.prefill(a, prompt, logits);
    const std::size_t charged = budget.accounted();
    ASSERT_EQ(charged, pool.page_bytes());

    // Move construction: the pages travel with the cache; the moved-from
    // cache is empty, unbound, and safe to destroy or reuse.
    lm::TransformerLm::KvCache b(std::move(a));
    EXPECT_EQ(budget.accounted(), charged);
    EXPECT_EQ(a.length(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.pages_held(), 0u);
    a.clear();  // must not release anything
    EXPECT_EQ(budget.accounted(), charged);

    // Move assignment over a charged target: the target's old page is
    // released once, the source's page keeps its single charge.
    lm::TransformerLm::KvCache c;
    c.attach_pool(&pool);
    model.prefill(c, prompt, logits);
    EXPECT_EQ(budget.accounted(), 2 * charged);
    c = std::move(b);
    EXPECT_EQ(budget.accounted(), charged);
  }
  // Every cache is gone: a double release anywhere above would have
  // tripped the pool's refcount checks.
  EXPECT_EQ(budget.accounted(), 0u);
  EXPECT_EQ(pool.pages_in_use(), 0u);
}

TEST(KvCachePrivatePool, ForkKeepsTheSourcesPrivatePoolAlive) {
  lm::TransformerLm model(tiny_config(), /*seed=*/2);
  const std::vector<int> prompt{4, 2, 9, 9, 1};
  const auto vocab = static_cast<std::size_t>(model.vocab_size());
  std::vector<float> want(vocab), got(vocab);
  lm::TransformerLm::KvCache fork;
  {
    // First grown without a pool: a private one of the model's shape.
    lm::TransformerLm::KvCache source;
    model.prefill(source,
                  std::span<const int>(prompt).first(prompt.size() - 1),
                  want);
    ASSERT_NE(source.pool(), nullptr);
    EXPECT_EQ(source.pool()->page_tokens(), mem::PagePoolConfig{}.page_tokens);
    fork.copy_prefix(source, source.length());
    EXPECT_EQ(fork.pool(), source.pool());
  }
  // The source (the pool's first owner) is gone; the fork's shared pages
  // and pool must still be valid.
  model.prefill_from(fork, std::span<const int>(prompt).last(1), got);
  model.next_logits(prompt, /*seed=*/0, want);
  EXPECT_EQ(want, got);
}

// ---- prefill_from bit-identicality ---------------------------------------

TEST(PrefillFrom, MatchesFullPrefillBitForBit) {
  lm::TransformerLm model(tiny_config(), /*seed=*/3);
  const std::vector<int> prompt{5, 3, 8, 2, 9, 1, 7, 4, 6, 2, 3, 11};
  const auto vocab = static_cast<std::size_t>(model.vocab_size());

  lm::TransformerLm::KvCache full;
  std::vector<float> logits_full(vocab);
  model.prefill(full, prompt, logits_full);

  for (const std::size_t split : {std::size_t{1}, std::size_t{5},
                                  prompt.size() - 1}) {
    lm::TransformerLm::KvCache part;
    std::vector<float> scratch(vocab);
    model.prefill(part,
                  std::span<const int>(prompt).first(split), scratch);
    std::vector<float> logits_split(vocab);
    model.prefill_from(part, std::span<const int>(prompt).subspan(split),
                       logits_split);
    EXPECT_EQ(part.length(), prompt.size());
    for (std::size_t v = 0; v < vocab; ++v) {
      EXPECT_EQ(logits_full[v], logits_split[v]) << "split " << split
                                                 << " vocab " << v;
    }
  }

  // Fork path: resume from a copy_prefix of the full cache instead of a
  // fresh prefill — the serve-layer composition — and via an empty cache,
  // where prefill_from must delegate to prefill.
  lm::TransformerLm::KvCache fork;
  fork.copy_prefix(full, 4);
  std::vector<float> logits_fork(vocab);
  model.prefill_from(fork, std::span<const int>(prompt).subspan(4),
                     logits_fork);
  EXPECT_EQ(logits_full, logits_fork);

  lm::TransformerLm::KvCache empty;
  std::vector<float> logits_empty(vocab);
  model.prefill_from(empty, prompt, logits_empty);
  EXPECT_EQ(logits_full, logits_empty);
}

// ---- radix tree ----------------------------------------------------------

TEST(PrefixCacheRadix, InsertLookupAndEdgeSplit) {
  lm::TransformerLm model(tiny_config(), /*seed=*/5);
  PrefixCache cache(model, {});
  const auto vocab = static_cast<std::size_t>(model.vocab_size());

  const std::vector<int> a{1, 2, 3, 4, 5, 6};
  lm::TransformerLm::KvCache kv_a;
  std::vector<float> scratch(vocab);
  model.prefill(kv_a, a, scratch);
  cache.insert(a, kv_a);
  EXPECT_EQ(cache.node_count(), 1u);
  // Reservations are page-granular: the default page size, which is what
  // kv_a's private pool pages with.
  EXPECT_EQ(cache.bytes(),
            mem::PagePoolConfig{}.page_tokens * bpt(model.config()));

  // Longest-prefix match, including the max_tokens cap landing mid-edge.
  const std::vector<int> probe{1, 2, 3, 4, 5, 6, 9};
  auto hit = cache.acquire(probe, probe.size() - 1, 0);
  EXPECT_EQ(hit.tokens, 6u);
  cache.release(hit);
  auto capped = cache.acquire(a, 5, 0);
  EXPECT_EQ(capped.tokens, 5u);
  cache.release(capped);
  auto miss = cache.acquire(std::vector<int>{9, 1}, 1, 0);
  EXPECT_EQ(miss.tokens, 0u);
  EXPECT_EQ(miss.node, nullptr);

  // Diverging insert splits the edge: {1,2,3} becomes one shared node with
  // children {4,5,6} and {9,9}.
  const std::vector<int> b{1, 2, 3, 9, 9};
  lm::TransformerLm::KvCache kv_b;
  model.prefill(kv_b, b, scratch);
  cache.insert(b, kv_b);
  EXPECT_EQ(cache.node_count(), 3u);
  auto mid = cache.acquire(std::vector<int>{1, 2, 3, 7}, 3, 0);
  EXPECT_EQ(mid.tokens, 3u);
  cache.release(mid);
  auto branch = cache.acquire(std::vector<int>{1, 2, 3, 9, 9, 4}, 5, 0);
  EXPECT_EQ(branch.tokens, 5u);
  cache.release(branch);

  // The cached rows are the exact floats the model stored: resuming from a
  // copy_to reproduces the full-prefill logits bit for bit.
  std::vector<float> logits_full(vocab);
  lm::TransformerLm::KvCache full;
  model.prefill(full, probe, logits_full);
  auto reuse = cache.acquire(probe, probe.size() - 1, 0);
  ASSERT_EQ(reuse.tokens, 6u);
  lm::TransformerLm::KvCache dst;
  cache.copy_to(reuse, dst);
  cache.release(reuse);
  std::vector<float> logits_reuse(vocab);
  model.prefill_from(dst, std::span<const int>(probe).subspan(6),
                     logits_reuse);
  EXPECT_EQ(logits_full, logits_reuse);
}

TEST(PrefixCacheLru, EvictsOldestLeafAndSparesPinned) {
  lm::TransformerLm model(tiny_config(), /*seed=*/7);
  mem::PagePool pool(pool_config(model.config(), /*page_tokens=*/4));
  PrefixCacheConfig config;
  config.page_tokens = pool.page_tokens();
  config.byte_budget = 8 * bpt(model.config());  // room for two 4-token nodes
  PrefixCache cache(model, config);
  const auto vocab = static_cast<std::size_t>(model.vocab_size());
  std::vector<float> scratch(vocab);

  const auto insert = [&](std::vector<int> tokens) {
    lm::TransformerLm::KvCache kv;
    kv.attach_pool(&pool);
    model.prefill(kv, tokens, scratch);
    cache.insert(tokens, kv);
  };
  const std::uint64_t evictions0 = counter_value("cache.prefix.evictions");
  const std::uint64_t skips0 = counter_value("cache.prefix.insert_skips");

  insert({1, 2, 3, 4});
  insert({5, 6, 7, 8});
  EXPECT_EQ(cache.node_count(), 2u);

  // Touch {5,6,7,8} so {1,2,3,4} is the LRU leaf, then overflow.
  auto touch = cache.acquire(std::vector<int>{5, 6, 7, 8, 1}, 4, 0);
  EXPECT_EQ(touch.tokens, 4u);
  cache.release(touch);
  insert({9, 10, 11, 12});
  EXPECT_EQ(cache.node_count(), 2u);
  EXPECT_EQ(counter_value("cache.prefix.evictions"), evictions0 + 1);
  auto gone = cache.acquire(std::vector<int>{1, 2, 3, 4, 1}, 4, 0);
  EXPECT_EQ(gone.tokens, 0u);
  auto kept = cache.acquire(std::vector<int>{5, 6, 7, 8, 1}, 4, 0);
  EXPECT_EQ(kept.tokens, 4u);

  // `kept` stays pinned: an insert that cannot fit even after evicting
  // every unpinned leaf is skipped, never evicting the pinned node.
  insert({13, 14, 15, 16, 17, 18, 19, 20});
  EXPECT_EQ(counter_value("cache.prefix.insert_skips"), skips0 + 1);
  auto still = cache.acquire(std::vector<int>{5, 6, 7, 8, 1}, 4, 0);
  EXPECT_EQ(still.tokens, 4u);
  cache.release(still);
  cache.release(kept);

  // Unpinned, shed() can now empty the cache.
  EXPECT_GT(cache.shed(cache.bytes()), 0u);
  EXPECT_EQ(cache.node_count(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(PrefixCacheBudget, NodePagesStayReservedAndDrainOnDestruction) {
  lm::TransformerLm model(tiny_config(), /*seed=*/9);
  guard::Budget budget(6 * bpt(model.config()));
  const auto vocab = static_cast<std::size_t>(model.vocab_size());
  std::vector<float> scratch(vocab);
  mem::PagePool pool(pool_config(model.config(), /*page_tokens=*/4));
  pool.bind_budget(&budget);
  {
    PrefixCacheConfig config;
    config.page_tokens = pool.page_tokens();
    PrefixCache cache(model, config);
    cache.bind_budget(&budget);
    const auto insert = [&](std::vector<int> tokens) {
      lm::TransformerLm::KvCache kv;
      kv.attach_pool(&pool);
      model.prefill(kv, tokens, scratch);
      cache.insert(tokens, kv);
    };
    // The node shares the prefill's page; once the prefill cache is gone
    // the node owns it, charged once and covered by its reservation.
    insert({1, 2, 3, 4});
    EXPECT_EQ(budget.accounted(), 4 * bpt(model.config()));
    EXPECT_EQ(budget.reserved(), 4 * bpt(model.config()));
    // A second node would breach the limit, so the first is evicted to
    // make room — the reservations never exceed what the budget allows,
    // and they keep covering every page the cache holds.
    insert({5, 6, 7, 8});
    EXPECT_EQ(cache.node_count(), 1u);
    EXPECT_LE(budget.reserved(), budget.limit());
    EXPECT_EQ(budget.accounted(), 4 * bpt(model.config()));
    EXPECT_LE(budget.accounted(), budget.reserved());
    // Surcharge reservations cover the caller's copy of matched rows.
    auto hit = cache.acquire(std::vector<int>{5, 6, 7, 8, 1}, 4, 8);
    ASSERT_EQ(hit.tokens, 4u);
    EXPECT_EQ(hit.surcharge_bytes, 4u * 8u);
    EXPECT_EQ(budget.reserved(), 4 * bpt(model.config()) + 32);
    cache.release(hit);
    cache.release_bytes(32);
    EXPECT_EQ(budget.reserved(), 4 * bpt(model.config()));
  }
  EXPECT_EQ(budget.reserved(), 0u);
  EXPECT_EQ(budget.accounted(), 0u);
  EXPECT_EQ(pool.pages_in_use(), 0u);
}

// ---- serve integration ---------------------------------------------------

// Once on the decoder's private pool and once on a caller's page pool with
// the shared prefix a whole number of pages: the tokens match a cache-less
// engine, and every hit shares the prefix's pages — zero KV bytes copied.
TEST(ServePrefixCache, CacheOnAndOffGenerateIdenticalTokens) {
  lm::TransformerLm model(tiny_config(), /*seed=*/11);
  const std::vector<int> shared{3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  mem::PagePool paged(pool_config(model.config(), /*page_tokens=*/5));
  ASSERT_EQ(shared.size() % paged.page_tokens(), 0u);

  const auto run = [&](bool cache_on, mem::PagePool* pool) {
    PrefixCacheConfig config;
    if (pool != nullptr) config.page_tokens = pool->page_tokens();
    PrefixCache prefix_cache(model, config);
    serve::TransformerBatchDecoder decoder(model, /*slots=*/2,
                                           /*parallel=*/true, pool);
    if (cache_on) decoder.set_prefix_cache(&prefix_cache);
    serve::Engine engine(decoder);
    std::vector<serve::Request> requests;
    for (int r = 0; r < 6; ++r) {
      serve::Request request;
      request.prompt = shared;
      request.prompt.push_back(12 + r);
      request.prompt.push_back(20 + r);
      request.shared_prefix_tokens = shared.size();
      request.options.sampler.temperature = 0.0;
      request.options.stop_on_eos = false;
      request.options.max_tokens = 6;
      request.options.seed = static_cast<std::uint64_t>(r);
      requests.push_back(std::move(request));
    }
    std::vector<std::vector<int>> tokens;
    for (auto& result :
         serve::generate_all(engine, std::move(requests))) {
      EXPECT_EQ(result.status, serve::RequestStatus::Ok);
      tokens.push_back(std::move(result.generation.tokens));
    }
    return tokens;
  };

  for (mem::PagePool* pool : {static_cast<mem::PagePool*>(nullptr), &paged}) {
    SCOPED_TRACE(pool == nullptr ? "private pool" : "page pool");
    const std::uint64_t hits0 = counter_value("cache.prefix.hits");
    const std::uint64_t saved0 =
        counter_value("cache.prefix.saved_prefill_tokens");
    const std::uint64_t zero_copy0 =
        counter_value("cache.prefix.zero_copy_hits");
    const std::uint64_t copied0 =
        counter_value("cache.prefix.hit_bytes_copied");
    const auto off = run(false, pool);
    EXPECT_EQ(counter_value("cache.prefix.hits"), hits0);  // no cache traffic
    const auto on = run(true, pool);
    EXPECT_EQ(on, off);
    const std::uint64_t hits = counter_value("cache.prefix.hits") - hits0;
    EXPECT_GT(hits, 0u);
    EXPECT_GT(counter_value("cache.prefix.saved_prefill_tokens"), saved0);
    // Slots and cache nodes page out of one pool, so every hit is a page
    // share.
    EXPECT_EQ(counter_value("cache.prefix.zero_copy_hits") - zero_copy0,
              hits);
    EXPECT_EQ(counter_value("cache.prefix.hit_bytes_copied"), copied0);
    if (pool != nullptr) {
      EXPECT_EQ(pool->pages_in_use(), 0u);
    }
  }
}

// prefill_chunk_tokens == 0 admits each request with its whole prompt:
// the first request's prefix is in the cache before the second, submitted
// right behind it into the other free slot, looks it up.  serve-bench
// `shard` reads its hit rate off this ordering.
TEST(ServePrefixCache, WholePromptAdmissionInsertsBeforeTheNextLookup) {
  lm::TransformerLm model(tiny_config(), /*seed=*/17);
  const std::vector<int> shared{2, 7, 1, 8, 2, 8, 1, 8, 2, 8};
  serve::TransformerBatchDecoder decoder(model, /*slots=*/2);
  PrefixCache prefix_cache(model, {});
  decoder.set_prefix_cache(&prefix_cache);
  serve::EngineConfig config;
  config.max_batch = 2;
  config.prefill_chunk_tokens = 0;
  serve::Engine engine(decoder, config);
  std::vector<serve::Request> requests(2);
  for (int r = 0; r < 2; ++r) {
    requests[r].prompt = shared;
    requests[r].prompt.push_back(12 + r);
    requests[r].shared_prefix_tokens = shared.size();
    requests[r].options.max_tokens = 4;
  }

  const std::uint64_t hits0 = counter_value("cache.prefix.hits");
  const std::uint64_t saved0 =
      counter_value("cache.prefix.saved_prefill_tokens");
  for (const auto& result : serve::generate_all(engine, requests)) {
    EXPECT_EQ(result.status, serve::RequestStatus::Ok);
  }
  EXPECT_EQ(counter_value("cache.prefix.hits") - hits0, 1u);
  EXPECT_EQ(counter_value("cache.prefix.saved_prefill_tokens") - saved0,
            shared.size());
}

// Chunked admission: siblings whose shared prefix is still being prefilled
// wait for that prefill's insert instead of each forwarding the block, so
// every sibling but the first reuses the whole prefix — with the same
// tokens as a cache-less engine, which just prefills them in turn.
TEST(ServePrefixCache, SiblingsWaitForTheSharedPrefixInsert) {
  lm::TransformerLm model(tiny_config(), /*seed=*/19);
  std::vector<int> shared;
  for (int t = 0; t < 20; ++t) shared.push_back(1 + (t * 7) % 30);
  constexpr std::size_t kSiblings = 4;

  const auto run = [&](bool cache_on) {
    serve::TransformerBatchDecoder decoder(model, kSiblings);
    PrefixCache prefix_cache(model, {});
    if (cache_on) decoder.set_prefix_cache(&prefix_cache);
    serve::EngineConfig config;
    config.max_batch = kSiblings;
    config.prefill_chunk_tokens = 4;  // the prefix takes 5 ticks
    serve::Engine engine(decoder, config);
    std::vector<serve::Request> requests(kSiblings);
    for (std::size_t r = 0; r < kSiblings; ++r) {
      requests[r].prompt = shared;
      requests[r].prompt.push_back(static_cast<int>(2 + r));
      requests[r].prompt.push_back(static_cast<int>(9 + r));
      requests[r].shared_prefix_tokens = shared.size();
      requests[r].options.stop_on_eos = false;
      requests[r].options.max_tokens = 5;
      requests[r].options.seed = r;
    }
    std::vector<std::vector<int>> tokens;
    for (auto& result : serve::generate_all(engine, std::move(requests))) {
      EXPECT_EQ(result.status, serve::RequestStatus::Ok);
      tokens.push_back(std::move(result.generation.tokens));
    }
    return tokens;
  };

  const auto off = run(false);
  const std::uint64_t hits0 = counter_value("cache.prefix.hits");
  const std::uint64_t saved0 =
      counter_value("cache.prefix.saved_prefill_tokens");
  EXPECT_EQ(run(true), off);
  EXPECT_EQ(counter_value("cache.prefix.hits") - hits0, kSiblings - 1);
  EXPECT_EQ(counter_value("cache.prefix.saved_prefill_tokens") - saved0,
            (kSiblings - 1) * shared.size());
}

TEST(ServePrefixCache, ShedCacheReportsFreedBytes) {
  lm::TransformerLm model(tiny_config(), /*seed=*/13);
  serve::TransformerBatchDecoder decoder(model, /*slots=*/1);
  PrefixCache prefix_cache(model, {});
  decoder.set_prefix_cache(&prefix_cache);
  serve::Engine engine(decoder);
  const auto result = serve::generate_sync(
      engine, std::vector<int>{4, 8, 15, 16, 23, 29}, [] {
        lm::GenerateOptions options;
        options.sampler.temperature = 0.0;
        options.stop_on_eos = false;
        options.max_tokens = 2;
        return options;
      }());
  ASSERT_EQ(result.status, serve::RequestStatus::Ok);
  EXPECT_GT(prefix_cache.bytes(), 0u);  // auto-inserted prompt
  // One node, one default-size page reserved (the decoder's private pool).
  EXPECT_EQ(decoder.shed_cache(prefix_cache.bytes()),
            mem::PagePoolConfig{}.page_tokens * bpt(model.config()));
  EXPECT_EQ(prefix_cache.bytes(), 0u);
}

}  // namespace
}  // namespace lmpeel::cache
