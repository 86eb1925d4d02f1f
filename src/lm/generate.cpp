#include "lm/generate.hpp"

#include <cmath>
#include <limits>

#include "obs/span.hpp"
#include "tok/vocab.hpp"
#include "util/check.hpp"

namespace lmpeel::lm {

double sequence_log_probability(LanguageModel& model,
                                std::span<const int> context,
                                std::span<const int> continuation,
                                std::uint64_t seed) {
  LMPEEL_CHECK(!continuation.empty());
  obs::Span span("lm.sequence_log_probability");
  std::vector<int> ctx(context.begin(), context.end());
  std::vector<float> logits(model.vocab_size());
  std::vector<float> probs(model.vocab_size());
  double log_prob = 0.0;
  for (const int token : continuation) {
    LMPEEL_CHECK(token >= 0 && token < model.vocab_size());
    {
      obs::Span step_span("lm.next_logits");
      model.next_logits(ctx, seed, logits);
    }
    obs::Registry::global().counter("lm.scored_tokens").add();
    if (logits[token] == kNegInf) {
      return -std::numeric_limits<double>::infinity();
    }
    probabilities(logits, probs);
    log_prob += std::log(static_cast<double>(probs[token]));
    ctx.push_back(token);
  }
  return log_prob;
}

const GenerationTrace& recorded_trace(const Generation& generation) {
  LMPEEL_CHECK_MSG(generation.trace.length() == generation.tokens.size(),
                   "generation trace not recorded: set "
                   "GenerateOptions::record_trace on the request");
  return generation.trace;
}

Generation generate(LanguageModel& model, std::span<const int> prompt,
                    const GenerateOptions& options) {
  LMPEEL_CHECK(options.max_tokens > 0);
  obs::Span span("lm.generate");
  obs::Registry::global().counter("lm.generations").add();
  util::Rng rng(options.seed, /*stream=*/0x5a3c);

  std::vector<int> context(prompt.begin(), prompt.end());
  std::vector<float> logits(model.vocab_size());

  Generation out;
  for (std::size_t i = 0; i < options.max_tokens; ++i) {
    {
      obs::Span step_span("lm.next_logits");
      model.next_logits(context, options.seed, logits);
    }
    const int token = sample(logits, options.sampler, rng);
    if (options.stop_on_eos && token == tok::kEos) break;
    if (token == options.stop_token) break;
    if (options.record_trace) {
      obs::Span trace_span("lm.trace_capture");
      out.trace.add_step(make_step(logits, token));
    }
    out.tokens.push_back(token);
    context.push_back(token);
    if (i + 1 == options.max_tokens) out.hit_max_tokens = true;
  }
  obs::Registry::global().counter("lm.tokens_generated")
      .add(out.tokens.size());
  return out;
}

}  // namespace lmpeel::lm
