#include "fault/chaos.hpp"

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "serve/retry.hpp"
#include "util/check.hpp"

namespace lmpeel::fault {

namespace {

using Clock = serve::Clock;

serve::Request chaos_request(std::size_t index, int vocab,
                             std::size_t max_tokens) {
  serve::Request request;
  // Deterministic ragged prompts over the non-special token range.
  const int lo = 4;
  const int span = vocab - lo;
  for (std::size_t t = 0; t < 3 + index % 5; ++t) {
    request.prompt.push_back(
        lo + static_cast<int>((index * 7 + t * 3) % span));
  }
  request.options.sampler.temperature = 0.0;  // greedy: no sampling noise
  request.options.max_tokens = max_tokens;
  request.options.seed = index;
  return request;
}

}  // namespace

ChaosReport run_chaos(serve::BatchDecoder& inner,
                      const ChaosOptions& options) {
  LMPEEL_CHECK_MSG(options.requests >= 1, "chaos needs >= 1 request");
  LMPEEL_CHECK_MSG(inner.vocab_size() >= 8, "chaos needs vocab >= 8");
  const Clock::time_point begin = Clock::now();
  const std::string postmortem_before =
      obs::FlightRecorder::global().last_dump_path();

  // Seeded schedule with the wedge pinned at op 0 (request 0's prefill):
  // while the decoder sleeps there, the burst below lands in the bounded
  // queue, so backpressure is part of the schedule, not a race.
  FaultEvent wedge;
  wedge.op = 0;
  wedge.kind = FaultKind::QueuePressure;
  wedge.delay_s = options.wedge_s;
  const FaultPlan plan =
      FaultPlan::from_seed(options.seed, options.plan).with_event(wedge);

  FaultyDecoder decoder(inner, plan);
  guard::Budget budget(options.budget_bytes);
  serve::EngineConfig config;
  config.max_batch = options.max_batch;
  config.queue_capacity = options.queue_capacity;
  config.step_budget_s = options.step_budget_s;
  // Whole-prompt admission: chaos prompts are 3-7 tokens, and the CLI runs
  // them over the replay decoder, whose prefill is one next_logits call.
  config.prefill_chunk_tokens = 0;
  if (options.budget_bytes != 0) {
    config.budget = &budget;
    config.queue_slo_s = options.queue_slo_s;
  }
  serve::Engine engine(decoder, config);

  const int vocab = inner.vocab_size();
  std::vector<std::future<serve::ServeResult>> futures;
  futures.reserve(options.requests);

  // Phase 1: wedge.
  futures.push_back(
      engine.submit(chaos_request(0, vocab, options.max_tokens)));
  {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (decoder.injector().ops() < 1 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Phase 2: burst while wedged.
  for (std::size_t r = 1; r < options.requests; ++r) {
    futures.push_back(
        engine.submit(chaos_request(r, vocab, options.max_tokens)));
  }

  // Phase 3: drain.  A bounded wait per future keeps the harness itself
  // hang-proof: a request the engine lost would otherwise block forever,
  // which is exactly the failure mode the report must be able to name.
  ChaosReport report;
  report.all_resolved = true;
  for (auto& future : futures) {
    if (future.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      report.all_resolved = false;
      report.statuses.push_back(serve::RequestStatus::EngineError);
      ++report.other;
      continue;
    }
    const serve::ServeResult result = future.get();
    report.statuses.push_back(result.status);
    switch (result.status) {
      case serve::RequestStatus::Ok: ++report.ok; break;
      case serve::RequestStatus::QueueFull: ++report.queue_full; break;
      case serve::RequestStatus::EngineError: ++report.engine_error; break;
      case serve::RequestStatus::Shed: ++report.shed; break;
      default: ++report.other; break;
    }
  }

  // Phase 4: recovery probe through the retry client.  Attempts are cheap
  // (each failed one advances the decoder op counter), and past the plan
  // horizon every op is clean, so this budget guarantees a served request
  // unless the engine is genuinely wedged.
  serve::RetryOptions retry_options;
  retry_options.seed = options.seed;
  retry_options.max_attempts = 16;
  retry_options.base_delay_s = 0.002;
  retry_options.max_delay_s = 0.05;
  serve::RetryClient retry(engine, retry_options);
  const serve::ServeResult probe = retry.generate(
      chaos_request(options.requests, vocab, options.max_tokens));
  report.probe_status = probe.status;
  report.probe_retries = retry.retries();

  const FaultInjector& injector = decoder.injector();
  report.injected_total = injector.injected();
  report.injected_throw = injector.injected(FaultKind::StepThrow);
  report.injected_nan = injector.injected(FaultKind::NanLogits);
  report.injected_inf = injector.injected(FaultKind::InfLogits);
  report.injected_delay = injector.injected(FaultKind::StepDelay);
  report.injected_pressure = injector.injected(FaultKind::QueuePressure);
  report.engine_errors = engine.engine_errors();
  report.accounted_peak_bytes = budget.accounted_peak();

  engine.shutdown();
  // The caller's decoder outlives this harness; detach it from the local
  // budget before the budget goes out of scope.
  if (options.budget_bytes != 0) decoder.bind_budget(nullptr);
  report.wall_s =
      std::chrono::duration<double>(Clock::now() - begin).count();
  const std::string postmortem_after =
      obs::FlightRecorder::global().last_dump_path();
  if (postmortem_after != postmortem_before) {
    report.postmortem_path = postmortem_after;
  }
  return report;
}

util::Table chaos_table(const ChaosReport& report) {
  util::Table table({"metric", "value"});
  const auto row = [&](const char* name, std::size_t value) {
    table.add_row({name, std::to_string(value)});
  };
  row("requests", report.statuses.size());
  row("resolved ok", report.ok);
  row("bounced (queue_full)", report.queue_full);
  row("shed (budget/slo)", report.shed);
  row("failed (engine_error)", report.engine_error);
  row("other", report.other);
  row("faults injected", report.injected_total);
  row("  step_throw", report.injected_throw);
  row("  nan_logits", report.injected_nan);
  row("  inf_logits", report.injected_inf);
  row("  step_delay", report.injected_delay);
  row("  queue_pressure", report.injected_pressure);
  row("engine errors contained", report.engine_errors);
  row("accounted peak bytes", report.accounted_peak_bytes);
  row("probe retries", report.probe_retries);
  table.add_row({"probe status",
                 serve::status_name(report.probe_status)});
  table.add_row({"all requests resolved",
                 report.all_resolved ? "yes" : "NO"});
  table.add_row({"survived", report.survived() ? "yes" : "NO"});
  table.add_row({"wall_s", util::Table::num(report.wall_s, 4)});
  table.add_row({"postmortem", report.postmortem_path.empty()
                                   ? "(none)"
                                   : report.postmortem_path});
  return table;
}

}  // namespace lmpeel::fault
