// InductionLm — the calibrated stand-in for Meta-Llama-3.1-8B-Instruct
// (DESIGN.md substitution S1).
//
// The paper's own §IV analysis concludes that on this task the 8B model
// "parrots traits taken from the prompt without insight into what traits
// should be prioritized": its numeric outputs cluster on common prefixes of
// the in-context values (Fig. 3), form prefix-keyed bimodal distributions
// that are stable across seeds up to small logit perturbations (Fig. 4),
// copy an in-context value verbatim ~10% of the time, and get *worse* as
// more examples are added.  InductionLm implements exactly those mechanisms
// as an autoregressive model over the shared tokenizer's id space:
//
//   * TEXT mode — an induction/copy head: the longest context suffix that
//     re-occurs earlier in the prompt votes for its historical continuation,
//     weighted exponentially by match length and by recency.  This is the
//     mechanism interpretability work attributes to in-context copying in
//     real transformers, and it reproduces format parroting, the LLAMBO
//     candidate-sampling behaviour, and the "repeats the user's structure"
//     phenomenology.
//   * NUMBER mode — when the context sits after a "Performance:" marker,
//     a decimal-literal state machine mixes (a) a prefix-copy head over the
//     in-context values and (b) a pretrained digit prior that smears mass
//     over numerically nearby 1–3-digit number tokens.  Position structure
//     (integer group, ".", fraction groups, termination) follows the
//     in-context length distribution.
//   * Instruct-format deviations — with probability growing in the number
//     of in-context examples, the response opens with a scripted natural-
//     language preamble; a fraction of deviations never produce a number
//     at all (the responses the paper had to discard when manually
//     harvesting outputs).
//   * Seed jitter — a per-(seed, context) logit perturbation with fixed
//     support, so different seeds yield identical candidate token sets with
//     slightly altered probabilities, exactly the Fig. 4 observation.
//
// The model is intentionally *not* given any performance-domain insight:
// like the paper's subject, it knows decimal syntax and the prompt, nothing
// else.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lm/language_model.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel::lm {

struct InductionParams {
  // --- TEXT mode (induction head) ---
  double induction_beta = 1.1;   ///< log-weight per matched suffix token
  int max_match = 12;            ///< suffix match length cap
  double recency_tau = 4000.0;   ///< match recency decay (tokens)
  double text_smoothing = 0.01;  ///< base weight for any token seen in ctx

  // --- NUMBER mode ---
  double copy_weight = 3.0;      ///< prefix-copy head strength
  double prior_weight = 1.6;     ///< digit-prior strength
  /// Digit-group smearing is relative to the anchor's numeric value
  /// (a 20%-ish band), floored so zero-heavy leading groups stay pinned.
  double neighbor_relative = 0.22;
  double neighbor_floor = 0.35;
  double background3 = 1e-4;     ///< broad floor over all 3-digit groups
  double structural_weight = 1e4;///< weight of forced tokens (space, ".")
  double end_weight = 2.2;       ///< termination pressure scale
  double continue_past_end = 0.05;  ///< chance mass of overlong values

  // --- instruct-format behaviour ---
  double deviation_base = 0.02;      ///< deviation prob at 1 ICL example
  double deviation_per_icl = 0.0022; ///< growth per additional example
  double deviation_max = 0.30;
  double refusal_fraction = 0.25;  ///< deviations that never emit a number

  // --- seedable stochasticity ---
  double seed_jitter = 0.04;  ///< std-dev of per-seed logit perturbation
};

class InductionLm final : public LanguageModel {
 public:
  /// The tokenizer must outlive the model and be the one used to encode
  /// prompts; the "Performance:" marker is compiled through it.
  explicit InductionLm(const tok::Tokenizer& tokenizer,
                       InductionParams params = {});

  int vocab_size() const override;
  void next_logits(std::span<const int> context, std::uint64_t seed,
                   std::span<float> out) override;
  std::string name() const override { return "induction-lm(llama3.1-8b-sim)"; }

  const InductionParams& params() const noexcept { return params_; }

 private:
  /// One in-context value: its token ids and where it ended in the context.
  struct NumberRef {
    std::vector<int> tokens;
    int terminator = -1;  ///< token right after the value ('\n', 'e', …)
    std::size_t end_pos = 0;
  };

  struct ContextView {
    std::vector<NumberRef> icl_values;
    bool in_number = false;
    std::vector<int> number_prefix;  ///< value tokens emitted so far
    bool expect_leading_space = false;
    bool value_complete = false;  ///< value + newline already emitted
    std::size_t response_start = 0;  ///< index just past <|assistant|>
    bool in_response = false;
    /// True when the prompt ends with the query's "Performance:" marker —
    /// the discriminative-surrogate task.  Deviations only occur there.
    bool query_is_performance = false;
  };

  ContextView parse(std::span<const int> context) const;

  void text_logits(std::span<const int> context, const ContextView& view,
                   std::span<float> out) const;
  void number_logits(const ContextView& view, std::span<float> out) const;

  /// Deviation script selection for this (seed, prompt); nullopt = none.
  std::optional<std::size_t> deviation_for(std::span<const int> context,
                                           const ContextView& view,
                                           std::uint64_t seed) const;

  void apply_seed_jitter(std::span<const int> context, std::uint64_t seed,
                         std::span<float> logits) const;

  const tok::Tokenizer* tokenizer_;
  InductionParams params_;

  std::vector<int> marker_;  ///< token ids of "Performance:"
  /// Scripted deviation preambles (token ids).  Scripts whose index is
  /// >= first_refusal_script_ end the response without a number.
  std::vector<std::vector<int>> scripts_;
  std::size_t first_refusal_script_ = 0;
};

}  // namespace lmpeel::lm
