// The generation loop: prompt ids in, sampled continuation (+ the per-token
// candidate trace, for callers that opt in) out.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lm/language_model.hpp"
#include "lm/sampler.hpp"
#include "lm/trace.hpp"

namespace lmpeel::lm {

struct GenerateOptions {
  SamplerConfig sampler;
  std::size_t max_tokens = 64;
  int stop_token = -1;        ///< stop *before* emitting this token (-1: off)
  bool stop_on_eos = true;    ///< stop when <|eos|> is sampled
  std::uint64_t seed = 0;     ///< sampling stream; also passed to the model
                              ///< on every next_logits call
  /// Record a trace Step (softmax + sorted selectable candidates) for every
  /// emitted token.  Off by default: only the offline analyses (sweeps,
  /// haystacks, figures) read the trace, and it costs a full-vocab softmax
  /// and sort per token.  Tokens and the RNG stream are the same either way.
  bool record_trace = false;
};

struct Generation {
  std::vector<int> tokens;  ///< emitted continuation (no prompt, no eos)
  GenerationTrace trace;    ///< one step per emitted position if recorded
  bool hit_max_tokens = false;
};

/// Generates a continuation of `prompt`; with `options.record_trace` it also
/// records a trace step (the full selectable-candidate set) per emitted token.
Generation generate(LanguageModel& model, std::span<const int> prompt,
                    const GenerateOptions& options);

/// The trace of a generation whose request set `record_trace`.  Throws (an
/// LMPEEL_CHECK) unless the trace has one step per emitted token, so a
/// reader that forgot to opt in fails loudly instead of reading an
/// unrecorded trace as an empty one.
const GenerationTrace& recorded_trace(const Generation& generation);

/// Teacher-forced log-probability of `continuation` given `context`
/// (sum of per-token log softmax values; -inf if any token is ungenerable),
/// with `seed` passed to every next_logits call.  Used by the LLAMBO
/// generative-classifier mode to score label strings.
double sequence_log_probability(LanguageModel& model,
                                std::span<const int> context,
                                std::span<const int> continuation,
                                std::uint64_t seed);

}  // namespace lmpeel::lm
