// The model-side interface of the pipeline.
//
// Everything downstream of a model — generation, trace recording, haystack
// enumeration, the LLAMBO-style tuners — is written against this interface,
// so the calibrated induction model (the paper's Llama stand-in) and the
// from-scratch transformer are interchangeable.
//
// Logit convention: next_logits fills one float per vocabulary id with an
// *unnormalised* log-weight.  -infinity means "this token is not generable
// in this state" (zero probability); the paper's per-position "selectable
// token" counts are computed from the non-(-inf), above-threshold entries.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>

namespace lmpeel::lm {

inline constexpr float kNegInf = -std::numeric_limits<float>::infinity();

class LanguageModel {
 public:
  virtual ~LanguageModel() = default;

  virtual int vocab_size() const = 0;

  /// Computes logits for the token following `context`.
  /// `out` must have vocab_size() entries; every entry is overwritten.
  /// `seed` keys any model-internal stochasticity (e.g. the induction
  /// model's seed-keyed logit jitter); deterministic models ignore it.
  /// The model holds no per-generation state, so the logits are a pure
  /// function of (context, seed).
  virtual void next_logits(std::span<const int> context, std::uint64_t seed,
                           std::span<float> out) = 0;

  virtual std::string name() const = 0;
};

}  // namespace lmpeel::lm
