// The paper's §V-D proposal, implemented: a number-generation hook.
//
//   "an LLM can be given a unique token to signal to a supporting model
//    that a number should be generated at a particular position within its
//    response. This mimics modern LLM tool usage patterns by providing a
//    hook for any number-generating process to transparently assist the
//    LLM in providing higher-quality answers."
//
// NumberHookLm wraps any LanguageModel.  Text generation is delegated to
// the wrapped model unchanged; the moment the wrapped model would start a
// numeric value in a response slot (the same state its number machine
// would enter), the hook consults a NumberGenerator — a small quantitative
// model that sees the prompt's structured content — and force-decodes that
// value's token sequence instead.  The "world-knowledge prefix" behaviour
// of §V-D is preserved: deviation preambles, format scaffolding and
// terminators still come from the language model.
//
// The reference NumberGenerator (GbtNumberGenerator) fits a
// gradient-boosted-tree regressor on the (configuration, runtime) examples
// parsed out of the prompt and predicts the query configuration's runtime
// — exactly the "separate component … fine-tuned … only operating in
// quantitative domains" the paper sketches.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gbt/booster.hpp"
#include "lm/language_model.hpp"
#include "perf/config_space.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel::lm {

/// The quantitative sidecar: maps the prompt's structured content to a
/// numeric prediction.
class NumberGenerator {
 public:
  virtual ~NumberGenerator() = default;

  /// Returns the value to emit for the current response, or nullopt to
  /// fall back to the language model's own number generation.
  /// `prompt_text` is the decoded prompt (everything before the response).
  virtual std::optional<double> generate(const std::string& prompt_text) = 0;

  virtual std::string name() const = 0;
};

/// Fits boosted trees on the "Hyperparameter configuration: … /
/// Performance: …" pairs found in the prompt and predicts the runtime of
/// the final (query) configuration.  Falls back when fewer than
/// `min_examples` pairs parse.
class GbtNumberGenerator final : public NumberGenerator {
 public:
  explicit GbtNumberGenerator(gbt::BoosterParams params = {
                                  .n_estimators = 60,
                                  .learning_rate = 0.15,
                                  .max_depth = 4,
                              },
                              std::size_t min_examples = 3);

  std::optional<double> generate(const std::string& prompt_text) override;
  std::string name() const override { return "gbt-number-generator"; }

 private:
  gbt::BoosterParams params_;
  std::size_t min_examples_;
};

/// LanguageModel wrapper implementing the hook.  Safe to call from several
/// threads at once, as the §IV-A sweep does: the memo sits behind a mutex,
/// and it keeps one entry per prompt, so generations of different prompts
/// may interleave without refitting the generator.
class NumberHookLm final : public LanguageModel {
 public:
  /// All three collaborators must outlive the wrapper.
  NumberHookLm(LanguageModel& base, const tok::Tokenizer& tokenizer,
               NumberGenerator& generator);

  int vocab_size() const override { return base_->vocab_size(); }
  void next_logits(std::span<const int> context, std::uint64_t seed,
                   std::span<float> out) override;
  std::string name() const override;

  /// How often the hook fired vs fell back to the base model.
  std::size_t hook_invocations() const noexcept { return invocations_; }
  std::size_t hook_fallbacks() const noexcept { return fallbacks_; }

 private:
  LanguageModel* base_;
  const tok::Tokenizer* tokenizer_;
  NumberGenerator* generator_;
  std::vector<int> marker_;

  // Per-prompt memo: the value tokens decided for a prompt's response slot
  // (empty when the generator fell back), keyed by the prompt fingerprint,
  // so every next_logits call of a generation agrees and each prompt is
  // fitted once.  Beyond memo_capacity_ entries the least recently used
  // goes.  A running generation uses its entry on every step, so it is
  // dropped only if memo_capacity_ (at least 256, and at least the host's
  // thread count) other prompts are used between two of its steps.
  struct MemoEntry {
    std::vector<int> value_tokens;
    std::list<std::uint64_t>::iterator order;
  };
  std::mutex memo_mutex_;
  std::unordered_map<std::uint64_t, MemoEntry> memo_;
  std::list<std::uint64_t> memo_order_;  // least recently used first
  std::size_t memo_capacity_;

  std::atomic<std::size_t> invocations_{0};
  std::atomic<std::size_t> fallbacks_{0};
};

}  // namespace lmpeel::lm
