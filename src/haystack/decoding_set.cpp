#include "haystack/decoding_set.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"

namespace lmpeel::haystack {

namespace {

bool is_value_token(const tok::Tokenizer& tokenizer, int id) {
  return tokenizer.is_number_token(id) || tokenizer.is_dot_token(id);
}

/// digits '.' digits, nothing else.
bool well_formed(const std::string& text) {
  const auto dot = text.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= text.size()) {
    return false;
  }
  if (text.find('.', dot + 1) != std::string::npos) return false;
  return util::all_digits(std::string_view(text).substr(0, dot)) &&
         util::all_digits(std::string_view(text).substr(dot + 1));
}

}  // namespace

std::optional<std::pair<std::size_t, std::size_t>> find_value_span(
    const lm::GenerationTrace& trace, const tok::Tokenizer& tokenizer) {
  const auto& steps = trace.steps();
  std::size_t i = 0;
  while (i < steps.size()) {
    if (!is_value_token(tokenizer, steps[i].chosen)) {
      ++i;
      continue;
    }
    std::size_t j = i;
    std::string text;
    while (j < steps.size() && is_value_token(tokenizer, steps[j].chosen)) {
      text += tokenizer.token_text(steps[j].chosen);
      ++j;
    }
    if (well_formed(text)) return std::make_pair(i, j);
    i = j;
  }
  return std::nullopt;
}

DecodingSet build_decoding_set(const lm::GenerationTrace& trace,
                               const tok::Tokenizer& tokenizer,
                               std::size_t first, std::size_t last,
                               const DecodingOptions& options) {
  LMPEEL_CHECK(first < last && last <= trace.length());
  DecodingSet out;
  out.permutations = trace.permutations(first, last);

  // The value actually generated.
  {
    std::string text;
    for (std::size_t s = first; s < last; ++s) {
      text += tokenizer.token_text(trace.step(s).chosen);
    }
    const auto v = util::parse_double(text);
    LMPEEL_CHECK_MSG(v.has_value(), "value span does not parse");
    out.sampled_value = *v;
  }

  // Per-step candidate lists with probabilities renormalised over the
  // recorded (selectable) support.
  struct StepCands {
    std::vector<const lm::Candidate*> cands;
    std::vector<double> probs;  // renormalised
    double draw_total = 0.0;    // Rng::categorical_total(probs)
  };
  std::vector<StepCands> steps;
  steps.reserve(last - first);
  for (std::size_t s = first; s < last; ++s) {
    StepCands sc;
    double total = 0.0;
    for (const lm::Candidate& c : trace.step(s).candidates) {
      sc.cands.push_back(&c);
      total += c.prob;
    }
    LMPEEL_CHECK(total > 0.0);
    for (const lm::Candidate* c : sc.cands) {
      sc.probs.push_back(c->prob / total);
    }
    steps.push_back(std::move(sc));
  }

  std::unordered_map<double, double> mass;  // value -> accumulated weight
  const auto deposit = [&](const std::string& text, double weight) {
    if (!well_formed(text)) return;
    const auto v = util::parse_double(text);
    if (!v.has_value()) return;
    mass[*v] += weight;
  };

  out.exact = out.permutations <= options.exact_limit;
  if (out.exact) {
    // Depth-first enumeration with running probability.
    std::string text;
    std::function<void(std::size_t, double)> dfs = [&](std::size_t s,
                                                       double weight) {
      if (s == steps.size()) {
        deposit(text, weight);
        return;
      }
      for (std::size_t c = 0; c < steps[s].cands.size(); ++c) {
        const lm::Candidate* cand = steps[s].cands[c];
        const double w = weight * steps[s].probs[c];
        if (w <= 0.0) continue;
        if (is_value_token(tokenizer, cand->token)) {
          const std::size_t keep = text.size();
          text += tokenizer.token_text(cand->token);
          dfs(s + 1, w);
          text.resize(keep);
        } else {
          // Termination candidate: the value ends before this step.
          deposit(text, w);
        }
      }
    };
    dfs(0, 1.0);
  } else {
    // Each step's draw total is summed once, not on every path.
    for (StepCands& sc : steps) {
      sc.draw_total =
          util::Rng::categorical_total(sc.probs.data(), sc.probs.size());
    }
    util::Rng rng(options.seed, 0x4a57);
    const double sample_weight =
        1.0 / static_cast<double>(options.mc_samples);
    for (std::size_t n = 0; n < options.mc_samples; ++n) {
      std::string text;
      bool terminated = false;
      for (std::size_t s = 0; s < steps.size() && !terminated; ++s) {
        const std::size_t c =
            rng.categorical(steps[s].probs.data(), steps[s].probs.size(),
                            steps[s].draw_total);
        const lm::Candidate* cand = steps[s].cands[c];
        if (is_value_token(tokenizer, cand->token)) {
          text += tokenizer.token_text(cand->token);
        } else {
          terminated = true;
        }
      }
      deposit(text, sample_weight);
    }
  }

  out.values.reserve(mass.size());
  for (const auto& [value, weight] : mass) {
    out.values.push_back({value, weight});
  }
  std::sort(out.values.begin(), out.values.end(),
            [](const WeightedValue& a, const WeightedValue& b) {
              return a.value < b.value;
            });
  return out;
}

}  // namespace lmpeel::haystack
