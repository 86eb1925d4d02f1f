#include "lm/induction_lm.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace lmpeel::lm {

namespace {

/// Position-sensitive context fingerprint: length plus the last 32 tokens.
std::uint64_t context_hash(std::span<const int> context) {
  std::uint64_t h = util::mix64(0xc0ffee ^ context.size());
  const std::size_t start = context.size() > 32 ? context.size() - 32 : 0;
  for (std::size_t i = start; i < context.size(); ++i) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(context[i]));
  }
  return h;
}

/// Deterministic pseudo-gaussian in roughly [-1.73, 1.73] with unit-ish
/// variance, keyed by an arbitrary 64-bit value.
double unit_noise(std::uint64_t key) {
  const double u =
      static_cast<double>(util::mix64(key) >> 11) * 0x1.0p-53;  // [0,1)
  return (u - 0.5) * 3.4641016151377544;  // uniform scaled to variance 1
}

}  // namespace

InductionLm::InductionLm(const tok::Tokenizer& tokenizer,
                         InductionParams params)
    : tokenizer_(&tokenizer), params_(params) {
  marker_ = tokenizer_->encode("Performance:");
  LMPEEL_CHECK(!marker_.empty());

  // Parseable deviation preambles first, refusals after; the number-state
  // machine takes over once a parseable script is exhausted.
  const char* parseable[] = {
      "Based on the provided examples, the predicted performance is",
      "The estimated runtime for this configuration is",
  };
  const char* refusals[] = {
      "I cannot accurately determine the runtime for this configuration "
      "without additional information.\n",
      "More profiling data would be required to estimate this "
      "configuration's performance.\n",
  };
  for (const char* s : parseable) scripts_.push_back(tokenizer_->encode(s));
  first_refusal_script_ = scripts_.size();
  for (const char* s : refusals) scripts_.push_back(tokenizer_->encode(s));
}

int InductionLm::vocab_size() const { return tokenizer_->vocab_size(); }

InductionLm::ContextView InductionLm::parse(
    std::span<const int> context) const {
  ContextView view;
  const auto& vocab = tokenizer_->vocab();
  const int space = tokenizer_->space_token();
  const int newline = tokenizer_->newline_token();

  // Locate the response start (just past the last <|assistant|>).
  for (std::size_t i = context.size(); i-- > 0;) {
    if (context[i] == tok::kAssistant) {
      view.in_response = true;
      view.response_start = i + 1;
      break;
    }
  }

  // Collect every "Performance: <value>" occurrence.
  const auto is_value_token = [&](int id) {
    return vocab.is_number(id) || vocab.is_dot(id);
  };
  std::vector<std::size_t> marker_ends;
  for (std::size_t i = 0; i + marker_.size() <= context.size(); ++i) {
    bool match = true;
    for (std::size_t k = 0; k < marker_.size(); ++k) {
      if (context[i + k] != marker_[k]) {
        match = false;
        break;
      }
    }
    if (match) marker_ends.push_back(i + marker_.size());
  }

  for (const std::size_t e : marker_ends) {
    std::size_t p = e;
    if (p < context.size() && context[p] == tok::kAssistant) ++p;
    if (p < context.size() && context[p] == space) ++p;
    NumberRef ref;
    while (p < context.size() && is_value_token(context[p])) {
      ref.tokens.push_back(context[p]);
      ++p;
    }
    // A well-formed value has int group, dot, at least one fraction group.
    // The token that follows it (newline for decimals, 'e' for scientific
    // notation) is remembered as the value's terminator — the copy head
    // votes for it when a value runs out of digits, which is how the model
    // reproduces whatever closing format the examples demonstrate.
    const std::size_t dots = static_cast<std::size_t>(std::count_if(
        ref.tokens.begin(), ref.tokens.end(),
        [&](int id) { return vocab.is_dot(id); }));
    if (p < context.size() && ref.tokens.size() >= 3 && dots == 1 &&
        vocab.is_dot(ref.tokens[1])) {
      ref.terminator = context[p];
      ref.end_pos = p;
      view.icl_values.push_back(std::move(ref));
    }
  }

  if (!view.in_response) return view;

  // Classify the generation tail.  The straightforward (non-deviant) case:
  // the prompt ends with the query's "Performance:" right before
  // <|assistant|>, and the tail is [space]? value-tokens [newline]?.
  const bool prompt_ends_with_marker =
      view.response_start >= marker_.size() + 1 &&
      std::equal(marker_.begin(), marker_.end(),
                 context.begin() + (view.response_start - 1 - marker_.size()));

  std::span<const int> tail = context.subspan(view.response_start);
  // Skip over any deviation-script prefix; deviation_for() handles whether
  // we are *inside* a script.  Here we only need the numeric suffix.
  std::size_t t = 0;
  // Find the last non-(value|space|newline) token; the numeric state
  // machine only cares about what follows it.
  for (std::size_t i = tail.size(); i-- > 0;) {
    if (!is_value_token(tail[i]) && tail[i] != space && tail[i] != newline) {
      t = i + 1;
      break;
    }
  }
  view.query_is_performance = prompt_ends_with_marker;
  const bool has_preamble = t > 0;
  if (!prompt_ends_with_marker && !has_preamble) {
    return view;  // free-running text generation
  }

  std::span<const int> numeric_tail = tail.subspan(t);
  std::size_t q = 0;
  bool saw_space = false;
  if (q < numeric_tail.size() && numeric_tail[q] == space) {
    saw_space = true;
    ++q;
  }
  std::vector<int> prefix;
  while (q < numeric_tail.size() && is_value_token(numeric_tail[q])) {
    prefix.push_back(numeric_tail[q]);
    ++q;
  }
  const bool newline_after =
      q < numeric_tail.size() && numeric_tail[q] == newline;

  if (newline_after && !prefix.empty()) {
    view.value_complete = true;
    return view;
  }
  // The value state machine only engages for the discriminative task's
  // response slot: either directly after the query's bare "Performance:"
  // marker, or after a complete (parseable) deviation preamble.  Any other
  // preamble — scientific-notation exponents, config-line completion in
  // the LLAMBO candidate-sampling mode — belongs to the induction head,
  // which emits digits by copying context tokens.
  if (has_preamble) {
    const std::span<const int> preamble = tail.subspan(0, t);
    bool preamble_is_script = false;
    for (std::size_t s = 0; s < first_refusal_script_; ++s) {
      const auto& script = scripts_[s];
      if (preamble.size() == script.size() &&
          std::equal(script.begin(), script.end(), preamble.begin())) {
        preamble_is_script = true;
        break;
      }
    }
    if (!preamble_is_script) return view;
  }
  view.in_number = true;
  view.number_prefix = std::move(prefix);
  view.expect_leading_space = !saw_space && view.number_prefix.empty();
  return view;
}

std::optional<std::size_t> InductionLm::deviation_for(
    std::span<const int> context, const ContextView& view,
    std::uint64_t seed) const {
  if (!view.in_response || !view.query_is_performance) return std::nullopt;
  const std::uint64_t h = util::hash_combine(
      seed, context_hash(context.subspan(0, view.response_start)));
  const double u = static_cast<double>(util::mix64(h) >> 11) * 0x1.0p-53;
  const double p_dev = std::min(
      params_.deviation_max,
      params_.deviation_base +
          params_.deviation_per_icl *
              static_cast<double>(view.icl_values.size()));
  if (u >= p_dev) return std::nullopt;
  const double v = u / p_dev;  // uniform in [0,1) given deviation
  if (v < params_.refusal_fraction) {
    const auto n_refusal = scripts_.size() - first_refusal_script_;
    const auto idx = static_cast<std::size_t>(
        v / params_.refusal_fraction * static_cast<double>(n_refusal));
    return first_refusal_script_ + std::min(idx, n_refusal - 1);
  }
  const double w = (v - params_.refusal_fraction) /
                   (1.0 - params_.refusal_fraction);
  const auto idx = static_cast<std::size_t>(
      w * static_cast<double>(first_refusal_script_));
  return std::min(idx, first_refusal_script_ - 1);
}

void InductionLm::next_logits(std::span<const int> context,
                              std::uint64_t seed, std::span<float> out) {
  LMPEEL_CHECK(out.size() == static_cast<std::size_t>(vocab_size()));
  std::fill(out.begin(), out.end(), kNegInf);

  const ContextView view = parse(context);

  if (view.in_response) {
    const auto deviation = deviation_for(context, view, seed);
    if (deviation.has_value()) {
      const std::vector<int>& script = scripts_[*deviation];
      std::span<const int> tail = context.subspan(view.response_start);
      // Inside the scripted preamble: force the next script token.
      if (tail.size() < script.size() &&
          std::equal(tail.begin(), tail.end(), script.begin())) {
        out[script[tail.size()]] =
            static_cast<float>(std::log(params_.structural_weight));
        apply_seed_jitter(context, seed, out);
        return;
      }
      const bool script_done =
          tail.size() >= script.size() &&
          std::equal(script.begin(), script.end(), tail.begin());
      if (script_done && *deviation >= first_refusal_script_) {
        out[tok::kEos] =
            static_cast<float>(std::log(params_.structural_weight));
        return;
      }
      if (script_done && tail.size() == script.size()) {
        // Parseable script just finished: emit the space before the value.
        out[tokenizer_->space_token()] =
            static_cast<float>(std::log(params_.structural_weight));
        apply_seed_jitter(context, seed, out);
        return;
      }
      // Parseable script + leading space: parse() classified the numeric
      // suffix; the number machine below takes over.
    }
    if (view.value_complete) {
      out[tok::kEos] = static_cast<float>(std::log(params_.structural_weight));
      return;
    }
    if (view.in_number) {
      number_logits(view, out);
      apply_seed_jitter(context, seed, out);
      return;
    }
  }

  text_logits(context, view, out);
  apply_seed_jitter(context, seed, out);
}

void InductionLm::number_logits(const ContextView& view,
                                std::span<float> out) const {
  const auto& vocab = tokenizer_->vocab();
  const int space = tokenizer_->space_token();
  const int newline = tokenizer_->newline_token();

  if (view.expect_leading_space) {
    out[space] = static_cast<float>(std::log(params_.structural_weight));
    return;
  }

  const std::vector<int>& prefix = view.number_prefix;
  const std::size_t p = prefix.size();
  std::unordered_map<int, double> weight;

  // ---- prefix-copy head ---------------------------------------------------
  // Each in-context value votes for its own continuation.  Exact-prefix
  // matches carry full weight (this is what keys the Fig. 4 modes to the
  // emitted prefix); position-only matches keep a reduced vote so the
  // machine never dead-ends after a prior-driven digit.
  const std::size_t n_icl = view.icl_values.size();
  double copy_total = 0.0;
  std::vector<double> vote(n_icl, 0.0);
  for (std::size_t v = 0; v < n_icl; ++v) {
    const auto& tokens = view.icl_values[v].tokens;
    if (tokens.size() < p) continue;
    const bool exact =
        std::equal(prefix.begin(), prefix.end(), tokens.begin());
    const double recency =
        1.0 + 0.5 * static_cast<double>(v + 1) / static_cast<double>(n_icl);
    vote[v] = (exact ? 1.0 : 0.15) * recency;
    copy_total += vote[v];
  }
  // Decimal *syntax* (where the dot goes, how a value ends) is pretrained
  // knowledge, not in-context copying: it keeps at least prior-level
  // strength even when the copy head is ablated away.
  const double syntax_weight =
      std::max(params_.copy_weight, params_.prior_weight);
  if (copy_total > 0.0) {
    for (std::size_t v = 0; v < n_icl; ++v) {
      if (vote[v] <= 0.0) continue;
      const auto& ref = view.icl_values[v];
      const double share = vote[v] / copy_total;
      if (ref.tokens.size() > p) {
        const int t = ref.tokens[p];
        weight[t] +=
            (vocab.is_dot(t) ? syntax_weight : params_.copy_weight) * share;
      } else {
        // The value ends here: vote for the terminator the examples
        // demonstrated (newline for decimals, 'e' for scientific
        // notation), with a sliver of mass left for overlong values.
        weight[ref.terminator] +=
            syntax_weight * share * (1.0 - params_.continue_past_end);
        weight[vocab.byte_token('0')] +=
            syntax_weight * share * params_.continue_past_end;
      }
    }
  } else {
    // No in-context anchor at all (e.g. zero parsed examples): end soon.
    weight[newline] += syntax_weight;
  }

  // ---- pretrained digit prior ----------------------------------------------
  // Smears mass over number tokens numerically near the in-context digits
  // at the same value position.  The integer position is sharp (the model
  // "appropriately reflects" output magnitude); fraction positions are
  // broad — that breadth is what produces the hundreds of selectable
  // tokens in Table II.
  const auto add_neighborhood = [&](const std::string& digits, double mass,
                                    bool integer_position) {
    const int len = static_cast<int>(digits.size());
    const int value = std::stoi(digits);
    const int domain = len == 1 ? 10 : (len == 2 ? 100 : 1000);
    // The smearing scale is *relative* to the anchor's magnitude: a model
    // with a numeric prior treats 734 +- 20% as plausible but keeps a
    // leading "000" group essentially pinned (changing it would shift the
    // value's order of magnitude).  The integer group is sharpest of all —
    // the paper observes the model "appropriately reflects" the output
    // magnitude there.
    double scale;
    if (integer_position) {
      scale = 0.10;
    } else if (len < 3) {
      // Trailing short groups carry the least-significant digits; the
      // model treats them as near-noise but still keeps a narrow band
      // (paper Table II: ~10 options at the fifth token).
      scale = len == 1 ? 0.8 : 0.6;
    } else {
      scale = std::max(params_.neighbor_floor,
                       params_.neighbor_relative * value);
    }
    // Mass below ~1e-6 relative cannot matter; bound the window.
    const int radius =
        std::min(domain, static_cast<int>(scale * 14.0) + 1);
    // Normalise the kernel so `mass` is the total prior mass contributed
    // by this anchor, independent of the smearing scale.
    double kernel_sum = 0.0;
    for (int d = -radius; d <= radius; ++d) {
      const int w = value + d;
      if (w < 0 || w >= domain) continue;
      kernel_sum += std::exp(-std::abs(d) / scale);
    }
    for (int d = -radius; d <= radius; ++d) {
      const int w = value + d;
      if (w < 0 || w >= domain) continue;
      std::string text(static_cast<std::size_t>(len), '0');
      int tmp = w;
      for (int pos = len - 1; pos >= 0; --pos) {
        text[pos] = static_cast<char>('0' + tmp % 10);
        tmp /= 10;
      }
      weight[vocab.number_token(text)] +=
          mass * std::exp(-std::abs(d) / scale) / kernel_sum;
    }
  };

  const bool at_integer = p == 0;
  double anchors = 0.0;
  bool any_wide_anchor = false;  // a 3-digit group anchors this position
  for (const auto& ref : view.icl_values) {
    if (ref.tokens.size() <= p) continue;
    const int t = ref.tokens[p];
    if (!vocab.is_number(t)) continue;  // dot handled by the copy head
    anchors += 1.0;
    if (vocab.text(t).size() == 3) any_wide_anchor = true;
  }
  if (anchors > 0.0) {
    for (const auto& ref : view.icl_values) {
      if (ref.tokens.size() <= p) continue;
      const int t = ref.tokens[p];
      if (!vocab.is_number(t)) continue;
      add_neighborhood(vocab.text(t), params_.prior_weight / anchors,
                       at_integer);
    }
    // Broad background over three-digit groups at fraction positions:
    // the long tail of the paper's per-position candidate sets.
    if (!at_integer && any_wide_anchor) {
      for (int g = 0; g < 1000; ++g) {
        std::string text = "000";
        int tmp = g;
        for (int pos = 2; pos >= 0; --pos) {
          text[pos] = static_cast<char>('0' + tmp % 10);
          tmp /= 10;
        }
        weight[vocab.number_token(text)] += params_.background3;
      }
    }
  }

  // ---- termination pressure -------------------------------------------------
  // Beyond the longest in-context value the prior has no anchors; end.
  if (copy_total == 0.0 || p > 0) {
    std::size_t longer = 0;
    for (const auto& ref : view.icl_values) {
      if (ref.tokens.size() > p) ++longer;
    }
    if (longer == 0 && p >= 3) {
      weight[newline] += syntax_weight * params_.end_weight;
    }
  }

  for (const auto& [token, w] : weight) {
    if (w > 0.0) out[token] = static_cast<float>(std::log(w));
  }
}

void InductionLm::text_logits(std::span<const int> raw_context,
                              const ContextView& view,
                              std::span<float> out) const {
  (void)view;
  // Section-marker specials (<|system|>, <|user|>, <|assistant|>, …) are
  // transparent to the induction head: they never recur, and leaving them
  // in would block every suffix match that crosses a section boundary —
  // exactly the position where completion prompts end.
  std::vector<int> filtered;
  filtered.reserve(raw_context.size());
  for (const int t : raw_context) {
    if (t >= tok::kNumSpecial) filtered.push_back(t);
  }
  const std::span<const int> context(filtered);

  const std::size_t n = context.size();
  if (n == 0) {
    out[tok::kBos] = 0.0f;
    return;
  }

  std::unordered_map<int, double> weight;
  const int max_match = params_.max_match;
  for (std::size_t j = 1; j < n; ++j) {
    // Longest match between the context suffix and the history ending at
    // j-1 (capped); the continuation token is context[j].
    int m = 0;
    while (m < max_match && j >= static_cast<std::size_t>(m) + 1 &&
           context[j - 1 - m] == context[n - 1 - m]) {
      ++m;
      if (n - 1 < static_cast<std::size_t>(m)) break;
    }
    const double recency =
        std::exp(-static_cast<double>(n - j) / params_.recency_tau);
    double w = params_.text_smoothing;
    if (m >= 1) w += std::exp(params_.induction_beta * m) * recency;
    weight[context[j]] += w;
  }

  for (const auto& [token, w] : weight) {
    if (w > 0.0) out[token] = static_cast<float>(std::log(w));
  }
  if (weight.empty()) out[tok::kEos] = 0.0f;
}

void InductionLm::apply_seed_jitter(std::span<const int> context,
                                    std::uint64_t seed,
                                    std::span<float> logits) const {
  if (params_.seed_jitter <= 0.0) return;
  const std::uint64_t base = util::hash_combine(seed, context_hash(context));
  for (std::size_t i = 0; i < logits.size(); ++i) {
    if (logits[i] == kNegInf) continue;
    logits[i] += static_cast<float>(
        params_.seed_jitter *
        unit_noise(util::hash_combine(base, static_cast<std::uint64_t>(i))));
  }
}

}  // namespace lmpeel::lm
