// BatchDecoder wrapper that applies a FaultInjector's schedule.
//
// Sits between the engine and a real decoder: each start_chunked()/step()
// consults the injector for the current op and applies the scheduled
// fault — throwing, corrupting logits, or stalling — before/after
// delegating.  Prefill chunks consume no op: a NaN/Inf scheduled for an
// admission poisons that request's final chunk, so a seeded plan hits the
// same requests however prompts are chunked.  Every other call forwards
// untouched, so the engine under test is the production engine, bit for
// bit; only the decoder misbehaves.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "serve/decoder.hpp"

namespace lmpeel::fault {

class FaultyDecoder final : public serve::ForwardingDecoder {
 public:
  /// The inner decoder must outlive the wrapper.
  FaultyDecoder(serve::BatchDecoder& inner, FaultPlan plan);

  void start_chunked(std::size_t slot, std::span<const int> prompt,
                     std::uint64_t seed,
                     std::size_t shared_prefix_tokens = 0) override;
  std::size_t prefill_chunk(std::size_t slot, std::size_t max_tokens,
                            std::span<float> out, bool* done) override;
  void step(std::span<const serve::BatchDecoder::Step> steps,
            lm::Tensor& logits) override;
  std::string name() const override {
    return "faulty(" + inner().name() + ")";
  }

  const FaultInjector& injector() const noexcept { return injector_; }

 private:
  /// Consumes the next op: throws for StepThrow, sleeps off a stall, and
  /// returns a NaN/Inf event the caller must apply to its logits.
  std::optional<FaultEvent> apply_next_op();

  FaultInjector injector_;
  /// Per slot: the NaN/Inf its admission drew, applied to the final chunk.
  std::vector<std::optional<FaultEvent>> poison_;
};

}  // namespace lmpeel::fault
