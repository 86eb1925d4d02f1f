#include "tune/annealing_tuner.hpp"
#include "tune/campaign.hpp"
#include "tune/gbt_surrogate_tuner.hpp"
#include "tune/genetic_tuner.hpp"
#include "tune/llambo_tuner.hpp"
#include "tune/random_search_tuner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "cache/prefix_cache.hpp"
#include "core/pipeline.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"

namespace lmpeel::tune {
namespace {

TEST(Campaign, RandomSearchRunsFullBudgetWithoutRepeats) {
  perf::Syr2kModel model;
  RandomSearchTuner tuner;
  CampaignOptions options;
  options.budget = 40;
  options.seed = 1;
  const auto result =
      run_campaign(tuner, model, perf::SizeClass::SM, options);
  EXPECT_EQ(result.evaluated.size(), 40u);
  EXPECT_EQ(result.best_so_far.size(), 40u);
  std::set<std::size_t> seen;
  for (const auto& s : result.evaluated) seen.insert(s.config_index);
  EXPECT_EQ(seen.size(), 40u);  // no repeats
  // best_so_far is non-increasing and bracketed by the evaluations.
  for (std::size_t i = 1; i < result.best_so_far.size(); ++i) {
    EXPECT_LE(result.best_so_far[i], result.best_so_far[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.best_runtime(), result.best_so_far.back());
}

TEST(Campaign, DeterministicForSeed) {
  perf::Syr2kModel model;
  CampaignOptions options;
  options.budget = 10;
  options.seed = 7;
  RandomSearchTuner a, b;
  const auto ra = run_campaign(a, model, perf::SizeClass::SM, options);
  const auto rb = run_campaign(b, model, perf::SizeClass::SM, options);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ra.evaluated[i].config_index, rb.evaluated[i].config_index);
    EXPECT_DOUBLE_EQ(ra.evaluated[i].runtime, rb.evaluated[i].runtime);
  }
}

TEST(Campaign, BestConfigMatchesBestRuntime) {
  perf::Syr2kModel model;
  RandomSearchTuner tuner;
  CampaignOptions options;
  options.budget = 15;
  options.seed = 3;
  const auto result =
      run_campaign(tuner, model, perf::SizeClass::XL, options);
  const perf::ConfigSpace space;
  double best = 1e300;
  std::size_t best_idx = 0;
  for (const auto& s : result.evaluated) {
    if (s.runtime < best) {
      best = s.runtime;
      best_idx = s.config_index;
    }
  }
  EXPECT_EQ(space.index_of(result.best_config()), best_idx);
}

TEST(GbtSurrogate, BeatsRandomSearchOnAverage) {
  perf::Syr2kModel model;
  double random_total = 0.0, surrogate_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    CampaignOptions options;
    options.budget = 40;
    options.seed = seed;
    RandomSearchTuner random_tuner;
    GbtSurrogateOptions gopt;
    gopt.warmup = 10;
    gopt.candidate_pool = 128;
    GbtSurrogateTuner surrogate_tuner(gopt);
    random_total +=
        run_campaign(random_tuner, model, perf::SizeClass::XL, options)
            .best_runtime();
    surrogate_total +=
        run_campaign(surrogate_tuner, model, perf::SizeClass::XL, options)
            .best_runtime();
  }
  EXPECT_LT(surrogate_total, random_total * 1.02);
}

TEST(Annealing, CoolsAndStaysInLegalSpace) {
  perf::Syr2kModel model;
  AnnealingTuner tuner;
  const double t0 = tuner.temperature();
  CampaignOptions options;
  options.budget = 30;
  options.seed = 5;
  const auto result =
      run_campaign(tuner, model, perf::SizeClass::XL, options);
  EXPECT_EQ(result.evaluated.size(), 30u);
  EXPECT_LT(tuner.temperature(), t0);
  std::set<std::size_t> seen;
  for (const auto& s : result.evaluated) seen.insert(s.config_index);
  EXPECT_EQ(seen.size(), 30u);  // no repeats
}

TEST(Annealing, MutationsAreLocalMoves) {
  // Consecutive proposals after warmup should usually be close in edit
  // distance (the neighbourhood structure is the point of SA).
  perf::Syr2kModel model;
  AnnealingTuner tuner;
  CampaignOptions options;
  options.budget = 25;
  options.seed = 9;
  const auto result =
      run_campaign(tuner, model, perf::SizeClass::SM, options);
  int local = 0;
  for (std::size_t i = 2; i < result.evaluated.size(); ++i) {
    const int d = perf::ConfigSpace::edit_distance(
        result.evaluated[i].config, result.evaluated[i - 1].config);
    if (d <= 3) ++local;
  }
  EXPECT_GT(local, static_cast<int>(result.evaluated.size()) / 2);
}

TEST(Genetic, RunsGenerationsWithoutRepeats) {
  perf::Syr2kModel model;
  GeneticOptions goptions;
  goptions.population = 8;
  GeneticTuner tuner(goptions);
  CampaignOptions options;
  options.budget = 40;  // 5 generations
  options.seed = 3;
  const auto result =
      run_campaign(tuner, model, perf::SizeClass::XL, options);
  EXPECT_EQ(result.evaluated.size(), 40u);
  EXPECT_GE(tuner.generation(), 3u);
  std::set<std::size_t> seen;
  for (const auto& s : result.evaluated) seen.insert(s.config_index);
  EXPECT_EQ(seen.size(), 40u);
}

TEST(Genetic, ImprovesAcrossGenerations) {
  perf::Syr2kModel model;
  double first_gen = 0.0, later_gen = 0.0;
  int repeats = 4;
  for (int r = 0; r < repeats; ++r) {
    GeneticOptions goptions;
    goptions.population = 10;
    GeneticTuner tuner(goptions);
    CampaignOptions options;
    options.budget = 40;
    options.seed = 50 + r;
    const auto result =
        run_campaign(tuner, model, perf::SizeClass::XL, options);
    for (std::size_t i = 0; i < 10; ++i) {
      first_gen += result.evaluated[i].runtime;
    }
    for (std::size_t i = 30; i < 40; ++i) {
      later_gen += result.evaluated[i].runtime;
    }
  }
  EXPECT_LT(later_gen, first_gen);  // generation 4 beats generation 1
}

class LlamboFixture : public ::testing::Test {
 protected:
  static core::Pipeline& pipeline() {
    static core::Pipeline p;
    return p;
  }
};

TEST_F(LlamboFixture, DiscriminativeModeCompletesCampaign) {
  LlamboOptions options;
  options.mode = LlamboMode::Discriminative;
  options.candidate_pool = 3;
  options.max_icl = 8;
  LlamboTuner tuner(pipeline().model(), pipeline().tokenizer(),
                    perf::SizeClass::SM, options);
  EXPECT_EQ(tuner.name(), "llambo-discriminative");
  CampaignOptions copt;
  copt.budget = 8;
  copt.seed = 2;
  const auto result =
      run_campaign(tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);
  EXPECT_EQ(result.evaluated.size(), 8u);
  EXPECT_GT(result.best_runtime(), 0.0);
}

TEST_F(LlamboFixture, EngineBackedCampaignMatchesDirectGeneration) {
  // Routing the surrogate generations through a serve::Engine must not
  // change the campaign at all: the replay decoder passes each request's
  // seed to the model, so every proposal evaluates identically.
  const auto run = [&](serve::Engine* engine) {
    LlamboOptions options;
    options.mode = LlamboMode::Discriminative;
    options.candidate_pool = 4;
    options.max_icl = 8;
    options.engine = engine;
    LlamboTuner tuner(pipeline().model(), pipeline().tokenizer(),
                      perf::SizeClass::SM, options);
    CampaignOptions copt;
    copt.budget = 8;
    copt.seed = 5;
    return run_campaign(tuner, pipeline().perf_model(), perf::SizeClass::SM,
                        copt);
  };

  const auto direct = run(nullptr);
  serve::GenericBatchDecoder decoder(pipeline().model(), /*slots=*/4);
  serve::Engine engine(decoder);
  const auto served = run(&engine);

  ASSERT_EQ(direct.evaluated.size(), served.evaluated.size());
  for (std::size_t i = 0; i < direct.evaluated.size(); ++i) {
    EXPECT_EQ(direct.evaluated[i].config_index,
              served.evaluated[i].config_index) << "evaluation " << i;
    EXPECT_DOUBLE_EQ(direct.evaluated[i].runtime, served.evaluated[i].runtime);
  }
}

TEST_F(LlamboFixture, PrefixCachedEngineCampaignIsBitIdentical) {
  // The serve-layer prefix cache (DESIGN.md §12) must be invisible to
  // results: an engine-routed discriminative campaign over a transformer
  // decoder evaluates exactly the same configurations with the cache
  // attached as without, while the cache actually sees hits (the tuner's
  // shared_prefix_tokens hint makes the ICL block insert-once).
  lm::TransformerConfig cfg;
  cfg.vocab = pipeline().tokenizer().vocab_size();
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 1;
  cfg.max_seq = 2048;
  lm::TransformerLm model(cfg, /*seed=*/17);

  const auto run = [&](bool cache_on) {
    serve::TransformerBatchDecoder decoder(model, /*slots=*/4);
    cache::PrefixCache prefix_cache(model, {});
    if (cache_on) decoder.set_prefix_cache(&prefix_cache);
    serve::Engine engine(decoder);
    LlamboOptions options;
    options.mode = LlamboMode::Discriminative;
    options.candidate_pool = 3;
    options.max_icl = 4;
    options.engine = &engine;
    LlamboTuner tuner(model, pipeline().tokenizer(), perf::SizeClass::SM,
                      options);
    CampaignOptions copt;
    copt.budget = 6;
    copt.seed = 11;
    return run_campaign(tuner, pipeline().perf_model(), perf::SizeClass::SM,
                        copt);
  };

  const std::uint64_t hits0 =
      obs::Registry::global().counter("cache.prefix.hits").value();
  const auto off = run(false);
  EXPECT_EQ(obs::Registry::global().counter("cache.prefix.hits").value(),
            hits0);
  const auto on = run(true);
  EXPECT_GT(obs::Registry::global().counter("cache.prefix.hits").value(),
            hits0);

  ASSERT_EQ(off.evaluated.size(), on.evaluated.size());
  for (std::size_t i = 0; i < off.evaluated.size(); ++i) {
    EXPECT_EQ(off.evaluated[i].config_index, on.evaluated[i].config_index)
        << "evaluation " << i;
    EXPECT_EQ(off.evaluated[i].runtime, on.evaluated[i].runtime);
  }
}

TEST_F(LlamboFixture, GenerativeModeCompletesCampaign) {
  LlamboOptions options;
  options.mode = LlamboMode::Generative;
  options.candidate_pool = 3;
  options.max_icl = 8;
  LlamboTuner tuner(pipeline().model(), pipeline().tokenizer(),
                    perf::SizeClass::SM, options);
  CampaignOptions copt;
  copt.budget = 7;
  copt.seed = 3;
  const auto result =
      run_campaign(tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);
  EXPECT_EQ(result.evaluated.size(), 7u);
}

TEST_F(LlamboFixture, GenerativeModeSupportsNaryClasses) {
  LlamboOptions options;
  options.mode = LlamboMode::Generative;
  options.candidate_pool = 2;
  options.max_icl = 8;
  options.n_classes = 4;
  LlamboTuner tuner(pipeline().model(), pipeline().tokenizer(),
                    perf::SizeClass::SM, options);
  CampaignOptions copt;
  copt.budget = 6;
  copt.seed = 8;
  const auto result =
      run_campaign(tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);
  EXPECT_EQ(result.evaluated.size(), 6u);
}

TEST_F(LlamboFixture, GenerativeModeRejectsBadClassCount) {
  LlamboOptions options;
  options.mode = LlamboMode::Generative;
  options.warmup = 0;
  options.n_classes = 9;
  LlamboTuner tuner(pipeline().model(), pipeline().tokenizer(),
                    perf::SizeClass::SM, options);
  tuner.observe(perf::ConfigSpace().at(0), 0.001);
  tuner.observe(perf::ConfigSpace().at(5), 0.002);
  util::Rng rng(1);
  EXPECT_THROW(tuner.propose(rng), std::runtime_error);
}

TEST_F(LlamboFixture, CandidateSamplingProposesValidConfigs) {
  LlamboOptions options;
  options.mode = LlamboMode::CandidateSampling;
  options.max_icl = 8;
  LlamboTuner tuner(pipeline().model(), pipeline().tokenizer(),
                    perf::SizeClass::SM, options);
  CampaignOptions copt;
  copt.budget = 10;
  copt.seed = 4;
  const auto result =
      run_campaign(tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);
  // Every proposal must be a legal point of the space (run_campaign would
  // have thrown in index_of otherwise) and unique.
  std::set<std::size_t> seen;
  for (const auto& s : result.evaluated) seen.insert(s.config_index);
  EXPECT_EQ(seen.size(), 10u);
}

TEST(LlamboModeName, AllNamed) {
  EXPECT_STREQ(llambo_mode_name(LlamboMode::Discriminative),
               "discriminative");
  EXPECT_STREQ(llambo_mode_name(LlamboMode::Generative), "generative");
  EXPECT_STREQ(llambo_mode_name(LlamboMode::CandidateSampling),
               "candidate-sampling");
}

}  // namespace
}  // namespace lmpeel::tune
