#include "fault/faulty_decoder.hpp"

#include <chrono>
#include <limits>
#include <thread>
#include <utility>

namespace lmpeel::fault {

namespace {

void poison_row(std::span<float> row, FaultKind kind) {
  const float value = kind == FaultKind::NanLogits
                          ? std::numeric_limits<float>::quiet_NaN()
                          : std::numeric_limits<float>::infinity();
  for (std::size_t v = 0; v < row.size(); ++v) {
    // Alternate the sign for Inf so the row is irrecoverable by any
    // shift-invariant softmax (and matches what an exploded matmul emits).
    row[v] = (kind == FaultKind::InfLogits && (v & 1u)) ? -value : value;
  }
}

}  // namespace

FaultyDecoder::FaultyDecoder(serve::BatchDecoder& inner, FaultPlan plan)
    : serve::ForwardingDecoder(inner), injector_(std::move(plan)),
      poison_(inner.slots()) {}

std::optional<FaultEvent> FaultyDecoder::apply_next_op() {
  const auto event = injector_.next_op();
  if (!event.has_value()) return std::nullopt;
  switch (event->kind) {
    case FaultKind::StepThrow:
      // Throw before delegating: the slot stays unbound (or the batch
      // unstepped), exactly the state the engine's containment path
      // restores it to anyway.
      throw FaultInjectedError(event->op);
    case FaultKind::StepDelay:
    case FaultKind::QueuePressure:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(event->delay_s));
      break;
    case FaultKind::NanLogits:
    case FaultKind::InfLogits:
      return event;
    case FaultKind::ReplicaKill:
    case FaultKind::ReplicaStall:
      break;  // replica-level: the shard layer applies these, not us
  }
  return std::nullopt;
}

void FaultyDecoder::start_chunked(std::size_t slot,
                                  std::span<const int> prompt,
                                  std::uint64_t seed,
                                  std::size_t shared_prefix_tokens) {
  const auto poison = apply_next_op();
  inner().start_chunked(slot, prompt, seed, shared_prefix_tokens);
  poison_[slot] = poison;
}

std::size_t FaultyDecoder::prefill_chunk(std::size_t slot,
                                         std::size_t max_tokens,
                                         std::span<float> out, bool* done) {
  const std::size_t advanced =
      inner().prefill_chunk(slot, max_tokens, out, done);
  if (*done && poison_[slot].has_value()) poison_row(out, poison_[slot]->kind);
  return advanced;
}

void FaultyDecoder::step(std::span<const serve::BatchDecoder::Step> steps,
                         lm::Tensor& logits) {
  const auto poison = apply_next_op();
  inner().step(steps, logits);
  if (poison.has_value()) {
    poison_row(logits.row(poison->row % steps.size()), poison->kind);
  }
}

}  // namespace lmpeel::fault
