// lmpeel::mem — paged KV block pool (DESIGN.md §14).
//
// Covers the pool's contract bottom-up:
//   * mem: refcounted page lifecycle with exact byte accounting
//     (bytes_reserved == pages_in_use * page_bytes on every transition),
//     free-list recycling, exhaustion at max_pages, copy-on-write of a
//     shared boundary page, and refcount traffic from concurrent threads
//     draining to zero (the TSan target);
//   * lm: paged prefill / prefill_from / decode_batch reproduce the
//     serial next_logits reference bit for bit (EXPECT_EQ on floats, not
//     near) across batch sizes and prefix-hit suffixes;
//   * cache/serve: prefix hits on paged nodes share pages zero-copy
//     (0 KV bytes copied), pinned runs refuse eviction, and pool
//     exhaustion surfaces as Shed — never EngineError — at both the
//     prefill and decode stages of the two-stage scheduler.
#include "mem/page_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "guard/budget.hpp"
#include "lm/transformer.hpp"
#include "mem/paged_kv.hpp"
#include "obs/metrics.hpp"
#include "quant/quantized_lm.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"

namespace lmpeel::mem {
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

PagePoolConfig pool_config_for(const lm::TransformerConfig& cfg,
                               std::size_t page_tokens = 4,
                               std::size_t max_pages = 0) {
  PagePoolConfig pc;
  pc.page_tokens = page_tokens;
  pc.n_layer = static_cast<std::size_t>(cfg.n_layer);
  pc.d_model = static_cast<std::size_t>(cfg.d_model);
  pc.max_pages = max_pages;
  return pc;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// The ISSUE invariant, asserted from outside the pool as well: the pool
/// CHECKs it internally on every alloc/release, this just keeps the test
/// honest about the public accessors.
void expect_exact_accounting(const PagePool& pool) {
  EXPECT_EQ(pool.bytes_reserved(), pool.pages_in_use() * pool.page_bytes());
}

// ---- pool lifecycle ------------------------------------------------------

TEST(PagePool, AllocRecyclesAndAccountsExactly) {
  PagePool pool(pool_config_for(tiny_config()));
  EXPECT_EQ(pool.pages_in_use(), 0u);
  expect_exact_accounting(pool);

  std::vector<PageHandle> held;
  for (int i = 0; i < 3; ++i) held.push_back(pool.alloc());
  EXPECT_EQ(pool.pages_in_use(), 3u);
  expect_exact_accounting(pool);
  EXPECT_TRUE(held[0].unique());

  held.pop_back();
  EXPECT_EQ(pool.pages_in_use(), 2u);
  EXPECT_EQ(pool.free_pages(), 1u);
  expect_exact_accounting(pool);

  // The freed page is recycled, not re-allocated from the arena.
  held.push_back(pool.alloc());
  EXPECT_EQ(pool.pages_in_use(), 3u);
  EXPECT_EQ(pool.free_pages(), 0u);
  expect_exact_accounting(pool);

  held.clear();
  EXPECT_EQ(pool.pages_in_use(), 0u);
  EXPECT_EQ(pool.free_pages(), 3u);
  expect_exact_accounting(pool);
}

TEST(PagePool, SharedPageChargesBudgetOnce) {
  guard::Budget budget;  // unlimited, meters only
  PagePool pool(pool_config_for(tiny_config()));
  pool.bind_budget(&budget);

  PageHandle a = pool.alloc();
  EXPECT_EQ(budget.accounted(), pool.page_bytes());
  PageHandle b = a;  // retain, no new charge
  EXPECT_FALSE(a.unique());
  EXPECT_EQ(budget.accounted(), pool.page_bytes());
  EXPECT_EQ(pool.pages_in_use(), 1u);

  a.reset();
  EXPECT_TRUE(b.unique());
  EXPECT_EQ(pool.pages_in_use(), 1u);
  b.reset();
  EXPECT_EQ(pool.pages_in_use(), 0u);
  EXPECT_EQ(budget.accounted(), 0u);
  expect_exact_accounting(pool);
}

TEST(PagePool, ExhaustionThrowsAndRecovers) {
  PagePool pool(pool_config_for(tiny_config(), /*page_tokens=*/4,
                                /*max_pages=*/1));
  const std::uint64_t exhausted0 = pool.exhausted_count();
  PageHandle only = pool.alloc();
  EXPECT_THROW(pool.alloc(), PoolExhausted);
  EXPECT_EQ(pool.exhausted_count(), exhausted0 + 1);
  expect_exact_accounting(pool);
  only.reset();
  EXPECT_TRUE(static_cast<bool>(pool.alloc()));
}

TEST(PagePool, ConcurrentRetainReleaseDrainsToZero) {
  PagePool pool(pool_config_for(tiny_config()));
  constexpr std::size_t kPages = 8;
  constexpr std::size_t kThreads = 4;
  std::vector<PageHandle> shared;
  for (std::size_t p = 0; p < kPages; ++p) shared.push_back(pool.alloc());

  // Each thread hammers copy/drop cycles over every shared page, so the
  // last-reference release races between threads and with the main
  // thread's final clear — the interleaving TSan is pointed at.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &pool] {
      for (int round = 0; round < 200; ++round) {
        std::vector<PageHandle> mine(shared.begin(), shared.end());
        PageHandle extra = pool.alloc();
        mine.push_back(std::move(extra));
        mine.clear();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(pool.pages_in_use(), kPages);
  shared.clear();
  EXPECT_EQ(pool.pages_in_use(), 0u);
  expect_exact_accounting(pool);
}

// ---- PagedKv: sharing and copy-on-write ----------------------------------

TEST(PagedKv, ShareFromIsZeroCopyAndCowIsolatesTheBoundaryPage) {
  const lm::TransformerConfig cfg = tiny_config();
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4));
  const std::size_t d = static_cast<std::size_t>(cfg.d_model);

  PagedKv a;
  a.attach(&pool);
  a.grow(0, 6);  // 2 pages, boundary page holds rows 4..5
  ASSERT_EQ(a.pages_held(), 2u);
  for (std::size_t l = 0; l < pool.config().n_layer; ++l) {
    for (std::size_t pos = 0; pos < 6; ++pos) {
      std::fill_n(a.k_row(l, pos), d, static_cast<float>(100 * l + pos));
      std::fill_n(a.v_row(l, pos), d, static_cast<float>(100 * l + pos) + 0.5f);
    }
  }

  const std::uint64_t shares0 = counter_value("mem.pool.page_shares");
  const std::uint64_t cows0 = counter_value("mem.pool.cow_copies");
  PagedKv b;
  b.attach(&pool);
  b.share_from(a, 6);
  EXPECT_EQ(b.pages_held(), 2u);
  EXPECT_EQ(pool.pages_in_use(), 2u);  // shared, not duplicated
  EXPECT_EQ(counter_value("mem.pool.page_shares"), shares0 + 2);  // per page

  std::vector<KvSpan> a_spans, b_spans;
  a.spans(0, 6, a_spans);
  b.spans(0, 6, b_spans);
  ASSERT_EQ(a_spans.size(), 2u);
  ASSERT_EQ(b_spans.size(), 2u);
  EXPECT_EQ(a_spans[0].k, b_spans[0].k);  // same physical pages
  EXPECT_EQ(a_spans[1].k, b_spans[1].k);
  EXPECT_EQ(b_spans[1].tokens, 2u);  // clipped to the valid rows

  // Appending into the shared boundary page forces a copy-on-write: b gets
  // a private copy of rows 4..5, a's rows stay untouched.
  b.grow(6, 7);
  EXPECT_EQ(counter_value("mem.pool.cow_copies"), cows0 + 1);
  EXPECT_EQ(pool.pages_in_use(), 3u);
  b.spans(0, 6, b_spans);
  EXPECT_EQ(a_spans[0].k, b_spans[0].k);  // full page still shared
  EXPECT_NE(a_spans[1].k, b_spans[1].k);  // boundary page now private
  for (std::size_t l = 0; l < pool.config().n_layer; ++l) {
    for (std::size_t pos = 4; pos < 6; ++pos) {
      EXPECT_EQ(b.k_row(l, pos)[0], static_cast<float>(100 * l + pos));
      EXPECT_EQ(b.v_row(l, pos)[0], static_cast<float>(100 * l + pos) + 0.5f);
      EXPECT_EQ(a.k_row(l, pos)[0], static_cast<float>(100 * l + pos));
    }
  }
}

// ---- lm: paged attention is bit-identical to the serial reference -------

std::vector<int> test_prompt(std::size_t length, std::size_t salt,
                             int vocab) {
  std::vector<int> prompt(length);
  for (std::size_t t = 0; t < length; ++t) {
    prompt[t] = static_cast<int>((salt * 7 + t * 3 + 1) %
                                 static_cast<std::size_t>(vocab));
  }
  return prompt;
}

TEST(PagedTransformer, PrefillAndDecodeBatchMatchNextLogitsBitForBit) {
  const lm::TransformerConfig cfg = tiny_config();
  lm::TransformerLm model(cfg, /*seed=*/3);
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4));
  const auto vocab = static_cast<std::size_t>(cfg.vocab);

  for (const std::size_t batch : {1u, 2u, 7u, 9u}) {
    std::vector<lm::TransformerLm::KvCache> paged(batch);
    std::vector<std::vector<int>> contexts(batch);
    std::vector<float> want(vocab), got(vocab);
    for (std::size_t b = 0; b < batch; ++b) {
      paged[b].attach_pool(&pool);
      // Ragged lengths straddling page boundaries (3..3+batch tokens).
      contexts[b] = test_prompt(3 + b, /*salt=*/b, cfg.vocab);
      model.next_logits(contexts[b], /*seed=*/0, want);
      model.prefill(paged[b], contexts[b], got);
      for (std::size_t i = 0; i < vocab; ++i) {
        ASSERT_EQ(want[i], got[i])
            << "prefill logit " << i << " diverged at batch " << batch;
      }
    }

    // A few batched decode steps with ragged cache lengths: the page-run
    // gather must follow the exact float path of the serial reference.
    std::vector<lm::TransformerLm::KvCache*> paged_ptrs;
    for (std::size_t b = 0; b < batch; ++b) paged_ptrs.push_back(&paged[b]);
    lm::Tensor paged_out(batch, vocab);
    std::vector<int> tokens(batch);
    for (int step = 0; step < 6; ++step) {
      for (std::size_t b = 0; b < batch; ++b) {
        tokens[b] = static_cast<int>((step * 5 + b * 11 + 2) % vocab);
        contexts[b].push_back(tokens[b]);
      }
      model.decode_batch(paged_ptrs, tokens, paged_out);
      for (std::size_t b = 0; b < batch; ++b) {
        model.next_logits(contexts[b], /*seed=*/0, want);
        for (std::size_t i = 0; i < vocab; ++i) {
          ASSERT_EQ(want[i], paged_out.at(b, i))
              << "decode logit " << i << " diverged at batch " << batch
              << " step " << step << " row " << b;
        }
      }
    }
  }
}

TEST(PagedTransformer, SharedPrefixSuffixPrefillMatchesFullPrefill) {
  const lm::TransformerConfig cfg = tiny_config();
  lm::TransformerLm model(cfg, /*seed=*/5);
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4));
  const auto vocab = static_cast<std::size_t>(cfg.vocab);

  // Prefix lengths around the page boundary: one exact multiple (8) and
  // one mid-page (6), each continued by a distinct suffix.
  for (const std::size_t prefix_len : {6u, 8u}) {
    const auto prefix = test_prompt(prefix_len, /*salt=*/17, cfg.vocab);
    const auto suffix = test_prompt(5, /*salt=*/23, cfg.vocab);
    std::vector<int> full = prefix;
    full.insert(full.end(), suffix.begin(), suffix.end());

    lm::TransformerLm::KvCache reference;
    std::vector<float> want(vocab);
    model.prefill(reference, full, want);

    // Source cache holds the prefix; the "hit" cache shares its pages
    // zero-copy and prefill_froms only the suffix.
    lm::TransformerLm::KvCache source, hit;
    source.attach_pool(&pool);
    hit.attach_pool(&pool);
    std::vector<float> scratch(vocab), got(vocab);
    model.prefill(source, prefix, scratch);
    const std::size_t before = pool.pages_in_use();
    hit.copy_prefix(source, prefix_len);
    EXPECT_EQ(pool.pages_in_use(), before);  // pure share, no new pages
    model.prefill_from(hit, suffix, got);
    for (std::size_t i = 0; i < vocab; ++i) {
      ASSERT_EQ(want[i], got[i])
          << "suffix logit " << i << " diverged at prefix " << prefix_len;
    }
    // The source's prefix rows must have survived the sharer's appends.
    lm::TransformerLm::KvCache recheck;
    recheck.attach_pool(&pool);
    recheck.copy_prefix(source, prefix_len);
    model.prefill_from(recheck, suffix, got);
    for (std::size_t i = 0; i < vocab; ++i) {
      ASSERT_EQ(want[i], got[i]) << "source rows were clobbered";
    }
  }
}

// attend_rows' SIMD lanes take 8 keys of one page span at a time, and a
// span's leftover rows go serially.  Contexts of 1..70 tokens cross whole
// lane groups, leftovers of every length and page edges — in prefill, in
// prefix-hit suffixes and in batched decode.
void expect_paged_attention_matches_next_logits(lm::TransformerConfig cfg,
                                                std::size_t page_tokens,
                                                lm::KvBackend& model,
                                                lm::LanguageModel& serial) {
  PagePool pool(pool_config_for(cfg, page_tokens));
  const auto vocab = static_cast<std::size_t>(cfg.vocab);
  const auto prompt = test_prompt(70, /*salt=*/41, cfg.vocab);
  const auto first = [&](std::size_t len) {
    return std::span<const int>(prompt).first(len);
  };
  std::vector<float> want(vocab), got(vocab);

  for (std::size_t len = 1; len <= prompt.size(); ++len) {
    serial.next_logits(first(len), /*seed=*/0, want);
    lm::KvCache cache;
    cache.attach_pool(&pool);
    model.prefill(cache, first(len), got);
    ASSERT_EQ(want, got) << "prefill of " << len << " tokens";
  }

  // Prefix hits ending mid-group, on a group edge and on page edges, each
  // continued by a suffix that crosses at least one more page.
  lm::KvCache source;
  source.attach_pool(&pool);
  model.prefill(source, first(48), got);
  for (const std::size_t prefix_len : {5u, 8u, 16u, 21u, 32u, 47u}) {
    const std::size_t len = prefix_len + 19;
    serial.next_logits(first(len), /*seed=*/0, want);
    lm::KvCache hit;
    hit.attach_pool(&pool);
    hit.copy_prefix(source, prefix_len);
    model.prefill_from(hit, first(len).subspan(prefix_len), got);
    ASSERT_EQ(want, got) << "suffix after a " << prefix_len
                         << "-token prefix hit";
  }

  // Batched decode over ragged lengths that grow across group and page
  // edges step by step.
  const std::vector<std::size_t> lengths{1, 7, 8, 9, 15, 16, 17, 33, 47, 63};
  std::vector<lm::KvCache> caches(lengths.size());
  std::vector<lm::KvCache*> cache_ptrs;
  std::vector<std::vector<int>> contexts;
  for (std::size_t b = 0; b < lengths.size(); ++b) {
    caches[b].attach_pool(&pool);
    model.prefill(caches[b], first(lengths[b]), got);
    cache_ptrs.push_back(&caches[b]);
    contexts.emplace_back(prompt.begin(), prompt.begin() + lengths[b]);
  }
  lm::Tensor out(lengths.size(), vocab);
  std::vector<int> tokens(lengths.size());
  for (std::size_t step = 0; step < 8; ++step) {
    for (std::size_t b = 0; b < lengths.size(); ++b) {
      tokens[b] = static_cast<int>((step * 5 + b * 11 + 2) % vocab);
      contexts[b].push_back(tokens[b]);
    }
    model.decode_batch(cache_ptrs, tokens, out);
    for (std::size_t b = 0; b < lengths.size(); ++b) {
      serial.next_logits(contexts[b], /*seed=*/0, want);
      ASSERT_EQ(want, std::vector<float>(out.row(b).begin(), out.row(b).end()))
          << "decode step " << step << " of a " << lengths[b]
          << "-token context";
    }
  }
}

// 16-token pages split keys into lane groups exactly where next_logits'
// single span does; 12-token pages do not, so a key that is a lane in one
// layout is a leftover in the other.  f32 and int8 alike (int8's
// next_logits prefills a private 16-token-page cache).
TEST(PagedTransformer, LaneGroupSpansMatchNextLogitsBitForBit) {
  lm::TransformerConfig cfg = tiny_config();
  cfg.d_model = 36;  // head dim 18: lane column blocks plus leftovers
  cfg.max_seq = 96;
  lm::TransformerLm model(cfg, /*seed=*/13);
  quant::QuantizedLm int8(model, quant::WeightFormat::kInt8);
  for (const std::size_t page_tokens : {16u, 12u}) {
    SCOPED_TRACE(testing::Message() << page_tokens << "-token pages");
    {
      SCOPED_TRACE("f32");
      expect_paged_attention_matches_next_logits(cfg, page_tokens, model,
                                                 model);
    }
    SCOPED_TRACE("int8");
    expect_paged_attention_matches_next_logits(cfg, page_tokens, int8, int8);
  }
}

// ---- cache: zero-copy hits and pinned runs -------------------------------

TEST(PagedPrefixCache, PureHitsSharePagesAndCopyZeroBytes) {
  const lm::TransformerConfig cfg = tiny_config();
  lm::TransformerLm model(cfg, /*seed=*/7);
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4));
  cache::PrefixCacheConfig cache_config;
  cache_config.page_tokens = pool.page_tokens();
  cache::PrefixCache prefix_cache(model, cache_config);

  // Seed the cache with an exactly-paged 8-token prefix.
  const auto prefix = test_prompt(8, /*salt=*/29, cfg.vocab);
  lm::TransformerLm::KvCache seed;
  seed.attach_pool(&pool);
  std::vector<float> logits(static_cast<std::size_t>(cfg.vocab));
  model.prefill(seed, prefix, logits);
  prefix_cache.insert(prefix, seed);

  const std::uint64_t zero_copy0 = counter_value("cache.prefix.zero_copy_hits");
  const std::uint64_t copied0 = counter_value("cache.prefix.hit_bytes_copied");
  auto lookup = prefix_cache.acquire(prefix, prefix.size(), 0);
  ASSERT_EQ(lookup.tokens, prefix.size());
  lm::TransformerLm::KvCache dst;
  dst.attach_pool(&pool);
  const std::size_t before = pool.pages_in_use();
  prefix_cache.copy_to(lookup, dst);
  prefix_cache.release(lookup);
  EXPECT_EQ(dst.length(), prefix.size());
  EXPECT_EQ(pool.pages_in_use(), before);  // handles copied, pages shared
  EXPECT_EQ(counter_value("cache.prefix.zero_copy_hits"), zero_copy0 + 1);
  EXPECT_EQ(counter_value("cache.prefix.hit_bytes_copied"), copied0);
}

TEST(PagedPrefixCache, PinnedRunRefusesEvictionAndKeepsItsPages) {
  const lm::TransformerConfig cfg = tiny_config();
  lm::TransformerLm model(cfg, /*seed=*/11);
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4));
  cache::PrefixCacheConfig cache_config;
  cache_config.page_tokens = pool.page_tokens();
  cache::PrefixCache prefix_cache(model, cache_config);

  const auto prefix = test_prompt(8, /*salt=*/31, cfg.vocab);
  lm::TransformerLm::KvCache seed;
  seed.attach_pool(&pool);
  std::vector<float> logits(static_cast<std::size_t>(cfg.vocab));
  model.prefill(seed, prefix, logits);
  prefix_cache.insert(prefix, seed);
  seed.clear();  // the node's shared pages keep the run alive
  const std::size_t node_pages = pool.pages_in_use();
  ASSERT_GT(node_pages, 0u);

  auto lookup = prefix_cache.acquire(prefix, prefix.size(), 0);
  ASSERT_GT(lookup.tokens, 0u);
  // Pinned: shedding everything must refuse to free this run.
  EXPECT_EQ(prefix_cache.shed(~std::size_t{0}), 0u);
  EXPECT_EQ(pool.pages_in_use(), node_pages);

  prefix_cache.release(lookup);
  EXPECT_GT(prefix_cache.shed(~std::size_t{0}), 0u);
  EXPECT_EQ(pool.pages_in_use(), 0u);  // eviction released the page run
  expect_exact_accounting(pool);
}

// ---- serve: exhaustion sheds, two-stage output is unchanged --------------

serve::Request mixed_request(std::size_t salt, int vocab,
                             std::size_t prompt_len, std::size_t gen) {
  serve::Request request;
  request.prompt = test_prompt(prompt_len, salt, vocab);
  request.options.sampler.temperature = 0.0;
  request.options.stop_on_eos = false;
  request.options.max_tokens = gen;
  request.options.seed = salt;
  return request;
}

TEST(PagedServe, PoolExhaustionAtPrefillShedsWithoutEngineError) {
  const lm::TransformerConfig cfg = tiny_config();
  lm::TransformerLm model(cfg, /*seed=*/13);
  // 2 pages of 4 tokens can never hold a 12-token prompt: every request
  // must shed at the prefill stage, and none may count as an engine error.
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4, /*max_pages=*/2));
  serve::TransformerBatchDecoder decoder(model, /*slots=*/2,
                                         /*parallel=*/true, &pool);
  serve::Engine engine(decoder);
  auto a = engine.submit(mixed_request(1, cfg.vocab, 12, 2));
  auto b = engine.submit(mixed_request(2, cfg.vocab, 12, 2));
  EXPECT_EQ(a.get().status, serve::RequestStatus::Shed);
  EXPECT_EQ(b.get().status, serve::RequestStatus::Shed);
  EXPECT_EQ(engine.engine_errors(), 0u);
  engine.shutdown();
  EXPECT_EQ(pool.pages_in_use(), 0u);  // shed requests released their pages
  expect_exact_accounting(pool);
}

TEST(PagedServe, PoolExhaustionAtDecodeShedsWithoutEngineError) {
  const lm::TransformerConfig cfg = tiny_config();
  lm::TransformerLm model(cfg, /*seed=*/13);
  // Exactly 3 pages fit the 12-token prompt; the first decode step needs a
  // fourth and must shed there — after prefill, before any generated token.
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4, /*max_pages=*/3));
  serve::TransformerBatchDecoder decoder(model, /*slots=*/2,
                                         /*parallel=*/true, &pool);
  serve::Engine engine(decoder);
  const auto result = engine.submit(mixed_request(3, cfg.vocab, 12, 4)).get();
  EXPECT_EQ(result.status, serve::RequestStatus::Shed);
  EXPECT_EQ(engine.engine_errors(), 0u);
  engine.shutdown();
  EXPECT_EQ(pool.pages_in_use(), 0u);
  expect_exact_accounting(pool);
}

TEST(PagedServe, TwoStageSchedulerGeneratesIdenticalTokens) {
  const lm::TransformerConfig cfg = tiny_config();
  lm::TransformerLm model(cfg, /*seed=*/17);

  // Baseline: the decoder's private pool, single-stage scheduling.
  std::vector<std::vector<int>> baseline;
  {
    serve::TransformerBatchDecoder decoder(model, /*slots=*/4);
    serve::EngineConfig config;
    config.prefill_chunk_tokens = 0;
    serve::Engine engine(decoder, config);
    std::vector<std::future<serve::ServeResult>> futures;
    for (std::size_t r = 0; r < 6; ++r) {
      futures.push_back(
          engine.submit(mixed_request(40 + r, cfg.vocab, 9 + r, 5)));
    }
    for (auto& f : futures) {
      auto result = f.get();
      ASSERT_EQ(result.status, serve::RequestStatus::Ok);
      baseline.push_back(std::move(result.generation.tokens));
    }
    engine.shutdown();
  }

  // Shared pool + chunked prefill small enough to split every prompt.
  PagePool pool(pool_config_for(cfg, /*page_tokens=*/4));
  serve::TransformerBatchDecoder decoder(model, /*slots=*/4,
                                         /*parallel=*/true, &pool);
  serve::EngineConfig config;
  config.prefill_chunk_tokens = 5;
  serve::Engine engine(decoder, config);
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t r = 0; r < 6; ++r) {
    futures.push_back(
        engine.submit(mixed_request(40 + r, cfg.vocab, 9 + r, 5)));
  }
  for (std::size_t r = 0; r < 6; ++r) {
    auto result = futures[r].get();
    ASSERT_EQ(result.status, serve::RequestStatus::Ok);
    EXPECT_EQ(result.generation.tokens, baseline[r])
        << "two-stage scheduling changed request " << r;
  }
  EXPECT_GT(counter_value("serve.prefill_stage.chunks"), 0u);
  engine.shutdown();
  EXPECT_EQ(pool.pages_in_use(), 0u);
  expect_exact_accounting(pool);
}

}  // namespace
}  // namespace lmpeel::mem
