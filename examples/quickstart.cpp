// Quickstart: the paper's core experiment in ~60 lines.
//
//   1. build the syr2k performance dataset (the measured tuning data);
//   2. pick a handful of in-context examples and a query configuration;
//   3. assemble the LLAMBO-style prompt (system / problem / ICL / query);
//   4. ask the LLM stand-in for a runtime prediction, with full logit
//      tracing;
//   5. parse the response and score it against the ground truth.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "core/pipeline.hpp"
#include "eval/metrics.hpp"
#include "lm/generate.hpp"
#include "prompt/parser.hpp"

int main() {
  using namespace lmpeel;

  // 1. Pipeline: tokenizer (BPE-trained), perf model, datasets, LLM.
  core::Pipeline pipeline;
  const auto& data = pipeline.dataset(perf::SizeClass::SM);
  std::cout << "dataset: " << data.size() << " configurations, runtimes in ["
            << data.min_runtime() << ", " << data.max_runtime() << "] s\n";

  // 2. Five random in-context examples and a held-out query.
  util::Rng rng(1);
  const auto subsets = perf::disjoint_subsets(data.size(), 1, 5, rng);
  std::vector<perf::Sample> examples;
  for (const std::size_t i : subsets[0]) examples.push_back(data[i]);
  const perf::Sample& query = data[9000];

  // 3. The Fig. 1 prompt.
  const auto builder = pipeline.builder(perf::SizeClass::SM);
  std::cout << "\n--- prompt (user section, truncated) ---\n"
            << builder.user_text(examples, query.config).substr(0, 600)
            << "…\n";
  const auto prompt_ids =
      builder.encode(pipeline.tokenizer(), examples, query.config);
  std::cout << "prompt length: " << prompt_ids.size() << " tokens\n";

  // 4. Generate with logit tracing.
  lm::GenerateOptions options;
  options.sampler = {1.0, 0, 0.998};
  options.stop_token = pipeline.tokenizer().newline_token();
  options.seed = 42;
  options.record_trace = true;
  const auto generation =
      lm::generate(pipeline.model(), prompt_ids, options);
  const std::string response =
      pipeline.tokenizer().decode(generation.tokens);
  std::cout << "\nmodel response: '" << response << "'\n";
  std::cout << "per-step selectable candidates:";
  for (const auto& step : generation.trace.steps()) {
    std::cout << ' ' << step.candidates.size();
  }
  std::cout << '\n';

  // 5. Parse and score.
  const auto parsed = prompt::parse_response(response);
  if (!parsed.value.has_value()) {
    std::cout << "the model produced no parseable value (a format "
                 "deviation — §III-C)\n";
    return 0;
  }
  std::cout << "predicted: " << *parsed.value
            << " s,  truth: " << query.runtime << " s,  relative error: "
            << eval::relative_error(query.runtime, *parsed.value) << '\n';
  return 0;
}
