// Runner for the §IV-A sweep.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"

namespace lmpeel::core {

/// Streaming hook: receives every generated response together with its full
/// logit trace, then the trace is discarded (2,880 full traces would hold
/// hundreds of MB).  Callbacks are serialised by the runner.
class SweepObserver {
 public:
  virtual ~SweepObserver() = default;
  virtual void on_query(const SettingKey& key, const QueryRecord& record,
                        const lm::GenerationTrace& trace,
                        const std::vector<std::string>& icl_value_texts) = 0;
};

/// Runs the sweep against the pipeline's model, or against
/// `model_override` when given (used by the §V-D number-hook extension and
/// by transformer ablations — any LanguageModel over the same tokenizer).
/// Cells run on the global pool, so the model's next_logits is called from
/// several threads at once; every model and wrapper in the library allows
/// that.
SweepResult run_llm_quality_sweep(Pipeline& pipeline,
                                  const SweepSettings& settings,
                                  SweepObserver* observer = nullptr,
                                  lm::LanguageModel* model_override = nullptr);

}  // namespace lmpeel::core
