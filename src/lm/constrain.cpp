#include "lm/constrain.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace lmpeel::lm {

namespace {

/// Grammar state derived from the response emitted so far.
enum class State {
  Start,          // nothing yet: expect ' '
  IntGroup,       // after ' ': expect a number token
  Dot,            // after the integer group: expect '.'
  FirstFraction,  // after '.': expect a number token
  MoreFraction,   // >=1 fraction group: number token or '\n'
  Done,           // after '\n': only <eos>
  Illegal,        // response already violated the grammar
};

}  // namespace

DecimalValueMask::DecimalValueMask(const tok::Tokenizer& tokenizer,
                                   int max_fraction_groups)
    : tokenizer_(&tokenizer), max_fraction_groups_(max_fraction_groups) {
  LMPEEL_CHECK(max_fraction_groups_ >= 1);
}

void DecimalValueMask::legal_tokens(std::span<const int> response,
                                    std::vector<std::uint8_t>& legal) const {
  const auto& vocab = tokenizer_->vocab();
  legal.assign(static_cast<std::size_t>(tokenizer_->vocab_size()), 0);

  // Replay the response through the grammar.
  State state = State::Start;
  int fraction_groups = 0;
  for (const int t : response) {
    switch (state) {
      case State::Start:
        state = t == tokenizer_->space_token() ? State::IntGroup
                                               : State::Illegal;
        break;
      case State::IntGroup:
        state = vocab.is_number(t) ? State::Dot : State::Illegal;
        break;
      case State::Dot:
        state = vocab.is_dot(t) ? State::FirstFraction : State::Illegal;
        break;
      case State::FirstFraction:
      case State::MoreFraction:
        if (vocab.is_number(t)) {
          ++fraction_groups;
          state = State::MoreFraction;
        } else if (state == State::MoreFraction &&
                   t == tokenizer_->newline_token()) {
          state = State::Done;
        } else {
          state = State::Illegal;
        }
        break;
      case State::Done:
        state = t == tok::kEos ? State::Done : State::Illegal;
        break;
      case State::Illegal:
        break;
    }
  }

  const auto allow_numbers = [&] {
    for (int v = 0; v < tokenizer_->vocab_size(); ++v) {
      if (vocab.is_number(v)) legal[v] = 1;
    }
  };
  switch (state) {
    case State::Start:
      legal[tokenizer_->space_token()] = 1;
      break;
    case State::IntGroup:
      allow_numbers();
      break;
    case State::Dot:
      legal[tokenizer_->dot_token()] = 1;
      break;
    case State::FirstFraction:
      allow_numbers();
      break;
    case State::MoreFraction:
      if (fraction_groups < max_fraction_groups_) allow_numbers();
      legal[tokenizer_->newline_token()] = 1;
      break;
    case State::Done:
      legal[tok::kEos] = 1;
      break;
    case State::Illegal:
      // Recover by closing the response.
      legal[tok::kEos] = 1;
      break;
  }
}

std::size_t DecimalValueMask::apply(std::span<const int> response,
                                    std::span<float> logits) const {
  std::vector<std::uint8_t> legal;
  legal_tokens(response, legal);
  LMPEEL_CHECK(legal.size() == logits.size());
  std::size_t surviving = 0;
  for (std::size_t v = 0; v < logits.size(); ++v) {
    if (!legal[v]) {
      logits[v] = kNegInf;
    } else if (logits[v] != kNegInf) {
      ++surviving;
    }
  }
  return surviving;
}

GrammarConstrainedLm::GrammarConstrainedLm(LanguageModel& base,
                                           const tok::Tokenizer& tokenizer,
                                           DecimalValueMask mask)
    : base_(&base), tokenizer_(&tokenizer), mask_(std::move(mask)) {}

void GrammarConstrainedLm::next_logits(std::span<const int> context,
                                       std::uint64_t seed,
                                       std::span<float> out) {
  base_->next_logits(context, seed, out);

  // The grammar applies to the response section only.
  bool in_response = false;
  std::size_t response_start = 0;
  for (std::size_t i = context.size(); i-- > 0;) {
    if (context[i] == tok::kAssistant) {
      in_response = true;
      response_start = i + 1;
      break;
    }
  }
  if (!in_response) return;  // no response section: leave unconstrained
  const std::span<const int> response = context.subspan(response_start);

  const std::size_t surviving = mask_.apply(response, out);
  if (surviving == 0) {
    // The model placed no mass on any legal continuation (it wanted to
    // deviate).  Guidance-style decoding still has to emit something:
    // uniform over the legal set.
    std::vector<std::uint8_t> legal;
    mask_.legal_tokens(response, legal);
    for (std::size_t v = 0; v < out.size(); ++v) {
      out[v] = legal[v] ? 0.0f : kNegInf;
    }
    ++forced_;
  }
}

}  // namespace lmpeel::lm
