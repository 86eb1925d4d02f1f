#include "tune/llambo_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "guard/breaker.hpp"
#include "obs/metrics.hpp"
#include "prompt/parser.hpp"
#include "serve/client.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace lmpeel::tune {

const char* llambo_mode_name(LlamboMode mode) {
  switch (mode) {
    case LlamboMode::Discriminative: return "discriminative";
    case LlamboMode::Generative: return "generative";
    case LlamboMode::CandidateSampling: return "candidate-sampling";
  }
  return "?";
}

LlamboTuner::LlamboTuner(lm::LanguageModel& model,
                         const tok::Tokenizer& tokenizer,
                         perf::SizeClass size, LlamboOptions options)
    : model_(&model),
      tokenizer_(&tokenizer),
      size_(size),
      options_(options),
      builder_(size) {
  LMPEEL_CHECK(options_.candidate_pool >= 1);
  LMPEEL_CHECK(options_.max_icl >= 1);
}

std::string LlamboTuner::name() const {
  return std::string("llambo-") + llambo_mode_name(options_.mode);
}

perf::Syr2kConfig LlamboTuner::random_unseen(util::Rng& rng) {
  LMPEEL_CHECK_MSG(seen_.size() < space_.size(),
                   "configuration space exhausted");
  for (;;) {
    const auto idx =
        static_cast<std::size_t>(rng.uniform_int(0, space_.size() - 1));
    if (!seen_.contains(idx)) return space_.at(idx);
  }
}

std::vector<perf::Sample> LlamboTuner::context_examples() const {
  const std::size_t keep = std::min(options_.max_icl, observations_.size());
  return {observations_.end() - keep, observations_.end()};
}

perf::Syr2kConfig LlamboTuner::propose(util::Rng& rng) {
  ++proposal_counter_;
  perf::Syr2kConfig chosen;
  if (observations_.size() < options_.warmup) {
    chosen = random_unseen(rng);
  } else {
    switch (options_.mode) {
      case LlamboMode::Discriminative:
        chosen = propose_discriminative(rng);
        break;
      case LlamboMode::Generative:
        chosen = propose_generative(rng);
        break;
      case LlamboMode::CandidateSampling:
        chosen = propose_candidate_sampling(rng);
        break;
    }
  }
  seen_.insert(space_.index_of(chosen));
  return chosen;
}

void LlamboTuner::observe(const perf::Syr2kConfig& config, double runtime) {
  LMPEEL_CHECK(runtime > 0.0);
  perf::Sample s;
  s.config = config;
  s.config_index = space_.index_of(config);
  s.runtime = runtime;
  observations_.push_back(s);
}

std::vector<lm::Generation> LlamboTuner::run_generations(
    std::vector<std::vector<int>> prompts,
    const std::vector<lm::GenerateOptions>& options,
    std::size_t shared_prefix_tokens) {
  LMPEEL_CHECK(prompts.size() == options.size());
  std::vector<lm::Generation> generations(prompts.size());
  bool use_engine = options_.engine != nullptr && !engine_degraded_ &&
                    options_.engine->accepting();
  if (options_.engine != nullptr && !use_engine && !engine_degraded_) {
    // The engine exists but stopped accepting (shutdown mid-campaign):
    // write it off for the rest of the campaign.
    engine_degraded_ = true;
    obs::Registry::global().counter("tune.engine_degraded").add();
  }
  if (use_engine && options_.breaker != nullptr &&
      !options_.breaker->allow()) {
    // Open breaker: the engine route is sick right now, but unlike
    // engine_degraded_ this is temporary — the breaker half-opens later
    // and a probe batch restores the route.  This batch goes direct.
    obs::Registry::global().counter("tune.breaker_skip").add();
    use_engine = false;
  }
  if (use_engine) {
    // Prompts stay owned here so any engine-rejected generation can be
    // re-run directly; both paths are bit-identical, so a fallback changes
    // availability, not results.
    std::vector<serve::Request> requests;
    requests.reserve(prompts.size());
    for (std::size_t i = 0; i < prompts.size(); ++i) {
      serve::Request request;
      request.prompt = prompts[i];
      request.options = options[i];
      request.shared_prefix_tokens = shared_prefix_tokens;
      requests.push_back(std::move(request));
    }
    auto results = serve::generate_all(*options_.engine, std::move(requests));
    std::size_t engine_failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].status == serve::RequestStatus::Ok) {
        generations[i] = std::move(results[i].generation);
        continue;
      }
      if (results[i].status == serve::RequestStatus::EngineError ||
          results[i].status == serve::RequestStatus::ShutDown) {
        ++engine_failed;
      }
      obs::Registry::global().counter("tune.fallback_direct").add();
      ++direct_fallbacks_;
      generations[i] = lm::generate(*model_, prompts[i], options[i]);
    }
    const bool wholesale_failure =
        engine_failed == results.size() && !results.empty();
    if (options_.breaker != nullptr) {
      if (wholesale_failure) {
        options_.breaker->record_failure();
      } else {
        options_.breaker->record_success();
      }
    }
    if (wholesale_failure && options_.breaker == nullptr) {
      // No breaker to mediate recovery: the whole batch died inside the
      // engine, so stop routing through it for good.
      engine_degraded_ = true;
      obs::Registry::global().counter("tune.engine_degraded").add();
    }
    return generations;
  }
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    generations[i] = lm::generate(*model_, prompts[i], options[i]);
  }
  return generations;
}

perf::Syr2kConfig LlamboTuner::propose_discriminative(util::Rng& rng) {
  const auto examples = context_examples();
  double best_pred = std::numeric_limits<double>::infinity();
  perf::Syr2kConfig best = random_unseen(rng);
  bool any_parsed = false;

  // Draw every candidate up front (same rng stream as the old one-at-a-time
  // loop — generation consumes no rng here), then score the whole pool in
  // one engine batch.  The ICL block is identical across the pool, so it is
  // encoded once and each candidate only encodes its own query tail
  // (bit-identical to whole-prompt encoding — see encode_prefix).
  std::vector<perf::Syr2kConfig> candidates;
  std::vector<std::vector<int>> prompts;
  std::vector<lm::GenerateOptions> gens;
  candidates.reserve(options_.candidate_pool);
  const std::vector<int> prefix = builder_.encode_prefix(*tokenizer_, examples);
  for (std::size_t c = 0; c < options_.candidate_pool; ++c) {
    candidates.push_back(random_unseen(rng));
    if (c > 0) obs::Registry::global().counter("tok.encode_cache_hits").add();
    std::vector<int> ids = prefix;
    builder_.append_query(*tokenizer_, candidates.back(), ids);
    prompts.push_back(std::move(ids));
    lm::GenerateOptions gen;
    gen.sampler = options_.sampler;
    gen.stop_token = tokenizer_->newline_token();
    gen.max_tokens = 48;
    gen.seed = util::hash_combine(proposal_counter_, c);
    gens.push_back(gen);
  }
  const auto generations =
      run_generations(std::move(prompts), gens, prefix.size());

  for (std::size_t c = 0; c < options_.candidate_pool; ++c) {
    const auto parsed =
        prompt::parse_response(tokenizer_->decode(generations[c].tokens));
    if (!parsed.value.has_value()) {
      ++parse_failures_;
      continue;
    }
    any_parsed = true;
    if (*parsed.value < best_pred) {
      best_pred = *parsed.value;
      best = candidates[c];
    }
  }
  if (!any_parsed) return random_unseen(rng);
  return best;
}

perf::Syr2kConfig LlamboTuner::propose_generative(util::Rng& rng) {
  LMPEEL_CHECK(options_.n_classes >= 2 && options_.n_classes <= 4);
  static const char* kLabels[] = {"good", "fair", "poor", "bad"};
  const std::size_t k = options_.n_classes;

  const auto examples = context_examples();
  // Quantile class boundaries over the observed runtimes.
  std::vector<double> runtimes;
  runtimes.reserve(examples.size());
  for (const auto& e : examples) runtimes.push_back(e.runtime);
  std::vector<double> cuts;
  for (std::size_t q = 1; q < k; ++q) {
    cuts.push_back(util::percentile(
        runtimes, 100.0 * static_cast<double>(q) / static_cast<double>(k)));
  }
  const auto class_of = [&](double runtime) {
    std::size_t cls = 0;
    while (cls < cuts.size() && runtime > cuts[cls]) ++cls;
    return cls;
  };

  // Build the labelled in-context block once; each candidate swaps in its
  // own query line.
  std::ostringstream icl;
  icl << "Here are the examples:\n";
  for (const auto& e : examples) {
    icl << prompt::render_config(e.config, size_) << '\n'
        << "Performance class: " << kLabels[class_of(e.runtime)] << "\n\n";
  }

  std::vector<std::vector<int>> label_ids;
  for (std::size_t cls = 0; cls < k; ++cls) {
    label_ids.push_back(
        tokenizer_->encode(std::string(" ") + kLabels[cls]));
  }

  // The [bos … system … problem … labelled ICL block] ids are identical for
  // every candidate: encode them once and copy per candidate (the old code
  // re-ran encode_append on the whole context each iteration).
  std::vector<int> base_ids;
  base_ids.push_back(tok::kBos);
  base_ids.push_back(tok::kSystem);
  tokenizer_->encode_append(builder_.system_text(), base_ids);
  base_ids.push_back(tok::kUser);
  tokenizer_->encode_append(builder_.problem_text(), base_ids);
  std::string icl_block("\n");
  icl_block += icl.str();
  tokenizer_->encode_append(icl_block, base_ids);

  // Pick the candidate whose expected class index (under the model's label
  // distribution) is lowest — the N-ary generalisation of "most likely
  // good".
  double best_score = std::numeric_limits<double>::infinity();
  perf::Syr2kConfig best = random_unseen(rng);
  for (std::size_t c = 0; c < options_.candidate_pool; ++c) {
    const perf::Syr2kConfig candidate = random_unseen(rng);
    if (c > 0) obs::Registry::global().counter("tok.encode_cache_hits").add();
    std::vector<int> ids = base_ids;
    tokenizer_->encode_append("Please complete the following:\n" +
                                  prompt::render_config(candidate, size_) +
                                  "\nPerformance class:",
                              ids);
    ids.push_back(tok::kAssistant);
    const std::uint64_t seed = util::hash_combine(proposal_counter_, c);
    std::vector<double> log_probs(k);
    double lse_max = -std::numeric_limits<double>::infinity();
    for (std::size_t cls = 0; cls < k; ++cls) {
      log_probs[cls] =
          lm::sequence_log_probability(*model_, ids, label_ids[cls], seed);
      lse_max = std::max(lse_max, log_probs[cls]);
    }
    double z = 0.0, expectation = 0.0;
    for (std::size_t cls = 0; cls < k; ++cls) {
      const double p = std::exp(log_probs[cls] - lse_max);
      z += p;
      expectation += p * static_cast<double>(cls);
    }
    const double score = expectation / z;
    if (score < best_score) {
      best_score = score;
      best = candidate;
    }
  }
  return best;
}

perf::Syr2kConfig LlamboTuner::propose_candidate_sampling(util::Rng& rng) {
  // Invert the mapping: show runtime -> configuration, worst first so the
  // model's recency bias points at the best region, then ask for a
  // configuration achieving an ambitious target.
  auto examples = context_examples();
  std::sort(examples.begin(), examples.end(),
            [](const perf::Sample& a, const perf::Sample& b) {
              return a.runtime > b.runtime;
            });
  const double target = examples.back().runtime * options_.target_fraction;

  std::ostringstream user;
  user << builder_.problem_text() << '\n'
       << "Here are examples of performance values and configurations that "
          "achieved them:\n";
  for (const auto& e : examples) {
    user << prompt::render_performance(e.runtime) << '\n'
         << prompt::render_config(e.config, size_) << "\n\n";
  }
  user << "Please propose a configuration for the following target:\n"
       << prompt::render_performance(target) << '\n'
       << "Hyperparameter configuration:";

  std::vector<int> ids;
  ids.push_back(tok::kBos);
  ids.push_back(tok::kSystem);
  tokenizer_->encode_append(builder_.system_text(), ids);
  ids.push_back(tok::kUser);
  tokenizer_->encode_append(user.str(), ids);
  ids.push_back(tok::kAssistant);

  lm::GenerateOptions gen;
  gen.sampler = options_.sampler;
  gen.stop_token = tokenizer_->newline_token();
  gen.max_tokens = 96;
  gen.seed = util::hash_combine(proposal_counter_, 0x5a);
  const auto generation =
      std::move(run_generations({std::move(ids)}, {gen}).front());
  const std::string text =
      "Hyperparameter configuration:" + tokenizer_->decode(generation.tokens);

  const auto parsed = prompt::parse_config_line(text);
  if (!parsed.has_value() || seen_.contains(space_.index_of(*parsed))) {
    if (!parsed.has_value()) ++parse_failures_;
    return random_unseen(rng);
  }
  return *parsed;
}

}  // namespace lmpeel::tune
