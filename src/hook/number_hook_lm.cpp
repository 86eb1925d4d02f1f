#include "hook/number_hook_lm.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <thread>

#include "lm/sampler.hpp"
#include "prompt/parser.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace lmpeel::lm {

namespace {

/// Fingerprint of the prompt section (everything before the response).
std::uint64_t prompt_key(std::span<const int> prompt) {
  std::uint64_t h = util::mix64(0x4007 ^ prompt.size());
  const std::size_t start = prompt.size() > 64 ? prompt.size() - 64 : 0;
  for (std::size_t i = start; i < prompt.size(); ++i) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(prompt[i]));
  }
  return h;
}

constexpr float kForceLogit = 16.0f;  // exp(16) dominates everything real
constexpr std::size_t kMemoEntries = 256;

}  // namespace

GbtNumberGenerator::GbtNumberGenerator(gbt::BoosterParams params,
                                       std::size_t min_examples)
    : params_(params), min_examples_(min_examples) {}

std::optional<double> GbtNumberGenerator::generate(
    const std::string& prompt_text) {
  // Harvest (configuration, runtime) pairs and the trailing query config
  // from the prompt's rendered lines.
  std::vector<double> x, y;
  std::optional<perf::Syr2kConfig> pending;
  std::optional<perf::Syr2kConfig> query;
  for (const std::string& line : util::split(prompt_text, '\n')) {
    const auto config = prompt::parse_config_line(line);
    if (config.has_value()) {
      pending = config;
      query = config;  // the last config line is the query
      continue;
    }
    if (pending.has_value() && line.find("Performance:") == 0) {
      const auto parsed = prompt::parse_response(line);
      if (parsed.value.has_value() && *parsed.value > 0.0) {
        const auto features = perf::ConfigSpace::features(*pending);
        x.insert(x.end(), features.begin(), features.end());
        y.push_back(std::log(*parsed.value));
        query.reset();  // consumed as a labelled example
      }
      pending.reset();
    }
  }
  if (!query.has_value() || y.size() < min_examples_) return std::nullopt;

  gbt::GradientBoostedTrees model;
  model.fit(x, perf::ConfigSpace::kNumFeatures, y, params_, /*seed=*/1);
  return std::exp(model.predict_row(perf::ConfigSpace::features(*query)));
}

NumberHookLm::NumberHookLm(LanguageModel& base,
                           const tok::Tokenizer& tokenizer,
                           NumberGenerator& generator)
    : base_(&base),
      tokenizer_(&tokenizer),
      generator_(&generator),
      memo_capacity_(std::max<std::size_t>(
          kMemoEntries, std::thread::hardware_concurrency())) {
  marker_ = tokenizer_->encode("Performance:");
}

std::string NumberHookLm::name() const {
  return base_->name() + "+number-hook(" + generator_->name() + ")";
}

void NumberHookLm::next_logits(std::span<const int> context,
                               std::uint64_t seed, std::span<float> out) {
  base_->next_logits(context, seed, out);

  // The hook only overrides positions where the base model itself is about
  // to emit numeric material (its top candidate is a digit group or the
  // dot) — preambles, scaffolding and terminators stay with the base.
  const int top = sample_greedy(out);
  const auto& vocab = tokenizer_->vocab();
  if (!vocab.is_number(top) && !vocab.is_dot(top)) return;

  // Locate the response slot and require the discriminative-task shape
  // (prompt ends with the "Performance:" marker).
  std::size_t response_start = 0;
  bool in_response = false;
  for (std::size_t i = context.size(); i-- > 0;) {
    if (context[i] == tok::kAssistant) {
      in_response = true;
      response_start = i + 1;
      break;
    }
  }
  if (!in_response) return;
  if (response_start < marker_.size() + 1 ||
      !std::equal(marker_.begin(), marker_.end(),
                  context.begin() + (response_start - 1 - marker_.size()))) {
    return;
  }

  const std::span<const int> prompt = context.subspan(0, response_start);
  const std::uint64_t key = prompt_key(prompt);
  // The generator runs under the lock, so a prompt is never fitted twice.
  const std::lock_guard lock(memo_mutex_);
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    memo_order_.splice(memo_order_.end(), memo_order_, it->second.order);
  } else {
    std::vector<int> value_tokens;
    const auto value = generator_->generate(tokenizer_->decode(prompt));
    if (value.has_value() && *value > 0.0) {
      value_tokens = tokenizer_->encode(util::format_runtime(*value, 5));
      ++invocations_;
    } else {
      ++fallbacks_;
    }
    if (memo_order_.size() == memo_capacity_) {
      memo_.erase(memo_order_.front());
      memo_order_.pop_front();
    }
    memo_order_.push_back(key);
    it = memo_.emplace(key, MemoEntry{std::move(value_tokens),
                                      std::prev(memo_order_.end())})
             .first;
  }
  const std::vector<int>& value_tokens = it->second.value_tokens;
  if (value_tokens.empty()) return;  // generator fell back

  // Position within the value: the run of numeric/dot tokens at the end of
  // the context.
  std::size_t p = 0;
  for (std::size_t i = context.size(); i-- > response_start;) {
    if (vocab.is_number(context[i]) || vocab.is_dot(context[i])) {
      ++p;
    } else {
      break;
    }
  }
  if (p >= value_tokens.size()) return;  // value done: base terminates

  std::fill(out.begin(), out.end(), kNegInf);
  out[value_tokens[p]] = kForceLogit;
}

}  // namespace lmpeel::lm
