// Guidance-style constrained decoding (§V-B).
//
// The paper discusses mitigating format deviations with tools like
// Langchain/Guidance that constrain generation to a template, warning that
// they "often limit outputs in manners that may be destructive to task
// success".  This module implements the mechanism so the claim is
// measurable: a token-level grammar mask for the demonstrated response
// format (` <int>.<fraction…>\n`) and a LanguageModel wrapper that applies
// it to any base model.
//
// When the base model places *no* mass on any grammar-legal token (e.g. it
// wanted to open a refusal preamble), the wrapper falls back to a uniform
// distribution over the legal tokens — the "destructive" regime: the
// output parses, but the digits carry no model belief at all.
#pragma once

#include <atomic>
#include <span>
#include <string>

#include "lm/language_model.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel::lm {

/// Token-level grammar of the response format demonstrated in Fig. 1:
///   response := ' ' int_group '.' fraction_group+ '\n' <eos>
/// with every *_group a 1–3-digit number token.
class DecimalValueMask {
 public:
  explicit DecimalValueMask(const tok::Tokenizer& tokenizer,
                            int max_fraction_groups = 4);

  /// Masks `logits` (sets -inf) for every token that cannot legally follow
  /// `response` (the tokens emitted so far in this response).
  /// Returns the number of tokens that remain legal AND carried finite
  /// base-model mass.
  std::size_t apply(std::span<const int> response,
                    std::span<float> logits) const;

  /// Marks every grammar-legal continuation of `response` in `legal`
  /// (resized to vocab, 0/1).
  void legal_tokens(std::span<const int> response,
                    std::vector<std::uint8_t>& legal) const;

 private:
  const tok::Tokenizer* tokenizer_;
  int max_fraction_groups_;
};

/// Wraps a base model so every next_logits call is grammar-masked; plugs
/// into the existing generation/sweep machinery unchanged.  Safe to call
/// from several threads at once, as the §IV-A sweep does.
class GrammarConstrainedLm final : public LanguageModel {
 public:
  GrammarConstrainedLm(LanguageModel& base, const tok::Tokenizer& tokenizer,
                       DecimalValueMask mask);

  int vocab_size() const override { return base_->vocab_size(); }
  void next_logits(std::span<const int> context, std::uint64_t seed,
                   std::span<float> out) override;
  std::string name() const override {
    return base_->name() + "+grammar-mask";
  }

  /// Steps where the base model had zero mass on every legal token and the
  /// wrapper had to substitute a uniform choice.
  std::size_t forced_uniform_steps() const noexcept { return forced_.load(); }

 private:
  LanguageModel* base_;
  const tok::Tokenizer* tokenizer_;
  DecimalValueMask mask_;
  std::atomic<std::size_t> forced_{0};
};

}  // namespace lmpeel::lm
