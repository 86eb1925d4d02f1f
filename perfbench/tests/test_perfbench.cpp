// Tests of the benchmark's own code: the `_tail` rule, open-loop due-time
// accounting, wrapper transparency and self-time attribution.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <stdexcept>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "core/pipeline.hpp"
#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "mem/page_pool.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "tune/campaign.hpp"
#include "tune/llambo_tuner.hpp"
#include "util/rng.hpp"
#include "wrappers.hpp"

namespace perfbench {
namespace {

using namespace lmpeel;

// ---- the _tail rule ---------------------------------------------------------

TEST(TailRule, LeavesExactlyTenSamplesAbove) {
  EXPECT_EQ(tail_index(11), 0u);
  EXPECT_EQ(tail_index(100), 89u);
  EXPECT_THROW(tail_index(10), std::invalid_argument);

  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // unsorted input
  const Summary s = summarize(values);
  EXPECT_TRUE(s.tail_ok);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.tail, 90.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  std::size_t above = 0;
  for (const double v : values) above += v > s.tail ? 1 : 0;
  EXPECT_EQ(above, kTailBeyond);
}

TEST(TailRule, TooFewSamplesIsFlagged) {
  const Summary s = summarize({3.0, 1.0, 2.0});
  EXPECT_FALSE(s.tail_ok);
  EXPECT_DOUBLE_EQ(s.tail, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
}

// ---- open-loop due-time accounting ------------------------------------------

TEST(OpenLoop, LatencyCountsFromDueTime) {
  std::vector<OpenLoopSample> samples(3);
  samples[0] = {0.000, 0.000, 0.010, 0.020, true};  // on time
  samples[1] = {0.100, 0.130, 0.010, 0.020, true};  // sent 30 ms late
  samples[2] = {0.200, 0.205, 0.000, 0.001, false}; // failed
  const OpenLoopTimes t = account_open_loop(samples, /*ttft_limit_s=*/0.035);
  ASSERT_EQ(t.ttft_from_due_s.size(), 2u);
  EXPECT_NEAR(t.ttft_from_due_s[0], 0.010, 1e-12);
  EXPECT_NEAR(t.ttft_from_due_s[1], 0.040, 1e-12);  // 30 ms late + 10 ms
  EXPECT_NEAR(t.done_from_due_s[1], 0.050, 1e-12);
  EXPECT_NEAR(t.late_max_s, 0.030, 1e-12);
  // The late request misses the limit its own ttft_s would have met, and
  // the failed one misses too.
  EXPECT_EQ(t.met_ttft, 1u);
}

TEST(OpenLoop, ScheduleIsSeededSortedAndFixedSize) {
  const std::vector<double> a = poisson_schedule(7, 100, 25.0);
  const std::vector<double> b = poisson_schedule(7, 100, 25.0);
  const std::vector<double> c = poisson_schedule(8, 100, 25.0);
  ASSERT_EQ(a.size(), 100u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 25.0);
}

// ---- attribution ------------------------------------------------------------

Span span(Layer layer, std::uint32_t thread, Nanos t0, Nanos t1) {
  Span s;
  s.layer = layer;
  s.thread = thread;
  s.t0 = t0;
  s.t1 = t1;
  return s;
}

TEST(Attribution, UnattributedShareComesFromSelfTimes) {
  // tune [0,10] holds serve [2,8], which holds two overlapping lm calls on
  // different threads ([3,5] and [4,6]); the wall is [0,12].  Raw
  // durations sum to 20 > 12, so a share computed from them would be
  // negative; self times give lm 3, serve 3, tune 4, and 2 unattributed.
  const std::vector<Span> spans = {
      span(Layer::Tune, 0, 0, 10), span(Layer::Serve, 0, 2, 8),
      span(Layer::Lm, 1, 3, 5),    span(Layer::Lm, 2, 4, 6),
      span(Layer::Client, 0, 2, 8)};  // waiting never owns time
  const Attribution a = attribute(spans, {{0, 12}});
  EXPECT_NEAR(a.wall_s * 1e9, 12.0, 1e-6);
  EXPECT_NEAR(a.self(Layer::Lm) * 1e9, 3.0, 1e-6);
  EXPECT_NEAR(a.self(Layer::Serve) * 1e9, 3.0, 1e-6);
  EXPECT_NEAR(a.self(Layer::Tune) * 1e9, 4.0, 1e-6);
  EXPECT_NEAR(a.self(Layer::Decoder), 0.0, 1e-12);
  EXPECT_NEAR(a.unattributed_share(), 2.0 / 12.0, 1e-9);
}

TEST(Attribution, WallIsClippedAndOverlapsCountOnce) {
  // Two overlapping wall pieces [0,6] and [4,10] form one 10-unit wall; a
  // decoder span reaching past it is clipped.
  const std::vector<Span> spans = {span(Layer::Decoder, 0, 8, 14)};
  const Attribution a = attribute(spans, {{0, 6}, {4, 10}});
  EXPECT_NEAR(a.wall_s * 1e9, 10.0, 1e-6);
  EXPECT_NEAR(a.self(Layer::Decoder) * 1e9, 2.0, 1e-6);
  EXPECT_NEAR(a.unattributed_share(), 0.8, 1e-9);
}

TEST(Intervals, UnionAndIntersection) {
  const auto u = union_of({{5, 7}, {0, 2}, {1, 3}});
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(total_length(u), 5);
  const auto i = intersect({{0, 10}}, {{2, 4}, {8, 12}});
  EXPECT_EQ(total_length(i), 4);
}

// ---- wrapper transparency ---------------------------------------------------

lm::TransformerConfig tiny_config(int vocab, int max_seq) {
  lm::TransformerConfig config;
  config.vocab = vocab;
  config.d_model = 32;
  config.n_head = 2;
  config.n_layer = 1;
  config.max_seq = max_seq;
  return config;
}

/// Serves `prompts` greedily through an engine over `model`, optionally
/// with every wrapper in place, and returns the generated tokens.
std::vector<std::vector<int>> serve_all(
    lm::TransformerLm& model, const std::vector<std::vector<int>>& prompts,
    bool wrapped) {
  Recorder recorder;
  recorder.set_enabled(true);
  TimedBackend timed_backend(model, recorder);
  lm::KvBackend& backend =
      wrapped ? static_cast<lm::KvBackend&>(timed_backend) : model;
  mem::PagePoolConfig pool_config;
  pool_config.page_tokens = 16;
  pool_config.n_layer = 1;
  pool_config.d_model = 32;
  mem::PagePool pool(pool_config);
  cache::PrefixCacheConfig cache_config;
  cache_config.page_tokens = 16;
  cache::PrefixCache prefix_cache(backend, cache_config);
  serve::TransformerBatchDecoder decoder(backend, 4, false, &pool);
  decoder.set_prefix_cache(&prefix_cache);
  TimedDecoder timed_decoder(decoder, recorder, &pool, nullptr);
  serve::Engine engine(
      wrapped ? static_cast<serve::BatchDecoder&>(timed_decoder) : decoder);
  TimedClient timed_client(engine, recorder);
  serve::Client& client =
      wrapped ? static_cast<serve::Client&>(timed_client) : engine;

  std::vector<std::future<serve::ServeResult>> futures;
  for (const auto& prompt : prompts) {
    serve::Request request;
    request.prompt = prompt;
    request.options.sampler.temperature = 0.0;
    request.options.max_tokens = 12;
    request.options.stop_on_eos = false;
    futures.push_back(client.submit(std::move(request)));
  }
  std::vector<std::vector<int>> out;
  for (auto& f : futures) {
    serve::ServeResult r = f.get();
    EXPECT_EQ(r.status, serve::RequestStatus::Ok);
    out.push_back(r.generation.tokens);
  }
  engine.shutdown();
  if (wrapped) {
    EXPECT_EQ(timed_client.records().size(), prompts.size());
    EXPECT_GT(timed_decoder.steps(), 0u);
    EXPECT_FALSE(recorder.snapshot().empty());
  }
  return out;
}

TEST(Wrappers, ServingIsTokenIdenticalWithAndWithoutWrappers) {
  lm::TransformerLm model(tiny_config(64, 96), /*seed=*/3);
  util::Rng rng(5, 6);
  std::vector<std::vector<int>> prompts;
  const std::vector<int> shared = {7, 8, 9, 10, 11, 12, 13, 14};
  for (int i = 0; i < 6; ++i) {
    std::vector<int> p = shared;  // shared prefix: exercises cache hits
    for (int k = 0; k < 20; ++k) {
      p.push_back(static_cast<int>(rng.uniform_int(5, 63)));
    }
    prompts.push_back(p);
  }
  const auto plain = serve_all(model, prompts, /*wrapped=*/false);
  const auto wrapped = serve_all(model, prompts, /*wrapped=*/true);
  EXPECT_EQ(plain, wrapped);
  lm::GenerateOptions options;
  options.sampler.temperature = 0.0;
  options.max_tokens = 12;
  options.stop_on_eos = false;
  EXPECT_EQ(lm::generate(model, prompts[0], options).tokens, plain[0]);
}

TEST(Wrappers, CampaignIsIdenticalThroughTimedTunerAndClient) {
  core::Pipeline pipeline;
  lm::TransformerLm model(tiny_config(pipeline.tokenizer().vocab_size(), 1280),
                          /*seed=*/9);
  const auto run = [&](bool wrapped) {
    Recorder recorder;
    serve::TransformerBatchDecoder decoder(model, 8, false);
    serve::Engine engine(decoder);
    TimedClient timed_client(engine, recorder);
    tune::LlamboOptions options;
    options.warmup = 4;
    options.candidate_pool = 8;
    options.max_icl = 12;
    options.engine = wrapped ? static_cast<serve::Client*>(&timed_client)
                             : static_cast<serve::Client*>(&engine);
    tune::LlamboTuner tuner(model, pipeline.tokenizer(), perf::SizeClass::SM,
                            options);
    TimedTuner timed_tuner(tuner, recorder);
    tune::CampaignOptions campaign;
    campaign.budget = 6;
    campaign.seed = 11;
    const tune::CampaignResult result = tune::run_campaign(
        wrapped ? static_cast<tune::Tuner&>(timed_tuner) : tuner,
        pipeline.perf_model(), perf::SizeClass::SM, campaign);
    engine.shutdown();
    EXPECT_EQ(tuner.direct_fallbacks(), 0u);
    std::vector<std::size_t> sequence;
    for (const auto& s : result.evaluated) sequence.push_back(s.config_index);
    return sequence;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace perfbench
