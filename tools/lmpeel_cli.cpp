// lmpeel — command-line driver for the library.
//
//   lmpeel dataset <S|SM|M|ML|L|XL> [seed]       write the dataset CSV to stdout
//   lmpeel predict <size> <icl> <query> [seed]   one discriminative prediction
//   lmpeel sweep [small]                         run the §IV-A sweep
//   lmpeel tune <tuner> <size> <budget> [seed]   run an autotuning campaign
//   lmpeel tokenize <text…>                      show the token stream
//   lmpeel stats [--json] [size] [icl] [seed]    generation run + metrics
//                                                summary (--json: one machine-
//                                                readable object on stdout)
//   lmpeel serve-bench [quick] [prefix|mixed|shard|recover]
//                      [--prefix on|off]
//                                                load-test the serve engine;
//                                                `prefix` measures shared-prefix
//                                                KV reuse cache-on vs cache-off,
//                                                `mixed` long+short traffic in
//                                                32-token prefill chunks vs
//                                                whole-prompt admission,
//                                                `recover` kills and revives a
//                                                replica and gates post-revive
//                                                decode throughput
//   lmpeel chaos [seed] [requests]               fault-injection survival run
//   lmpeel soak [--seconds N] [--seed N] [--budget BYTES] [--no-sick-window]
//               [--no-prefix-cache]
//               [--replicas N] [--kill-rate R] [--restart-rate R]
//                                                mixed-priority overload soak
//                                                (on a paged KV pool);
//                                                --replicas > 1 runs the fleet
//                                                soak behind shard::Router with
//                                                seeded replica kills/stalls;
//                                                --restart-rate resurrects
//                                                killed replicas through the
//                                                full revive protocol
//   lmpeel top [path] [--interval-ms N] [--once] live dashboard over another
//                                                process's LMPEEL_STATS_JSON
//                                                stream (queue depth, batch
//                                                occupancy, cache hit ratio,
//                                                budget headroom, SLO burn)
//   lmpeel quant-check [int8|fp16] [seed]        quantized-backend health
//                                                report: dispatched kernel
//                                                arch, per-tensor scales and
//                                                quantization error, weight
//                                                bytes vs f32, and max logit
//                                                drift on a seeded prompt
//
// Tuners: random | gbt | anneal | genetic | llambo-discriminative |
//         llambo-generative | llambo-sampling
//
// Every subcommand honours LMPEEL_TRACE=<path>: the obs subsystem buffers
// span events and writes a Chrome trace_event file (or JSONL when the path
// ends in .jsonl) at exit.
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "core/pipeline.hpp"
#include "core/reporting.hpp"
#include "core/sweep.hpp"
#include "eval/metrics.hpp"
#include "fault/chaos.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "guard/breaker.hpp"
#include "guard/budget.hpp"
#include "guard/soak.hpp"
#include "lm/generate.hpp"
#include "mem/page_pool.hpp"
#include "obs/sinks.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "prompt/parser.hpp"
#include "quant/arch.hpp"
#include "quant/quantized_lm.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "serve/retry.hpp"
#include "tune/annealing_tuner.hpp"
#include "tune/gbt_surrogate_tuner.hpp"
#include "tune/genetic_tuner.hpp"
#include "tune/llambo_tuner.hpp"
#include "tune/random_search_tuner.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace {

using namespace lmpeel;

int usage() {
  std::cerr
      << "usage:\n"
         "  lmpeel dataset <S|SM|M|ML|L|XL> [seed]\n"
         "  lmpeel predict <size> <icl_count> <query_index> [seed]\n"
         "  lmpeel sweep [small]\n"
         "  lmpeel tune <random|gbt|anneal|genetic|llambo-discriminative|"
         "llambo-generative|llambo-sampling> <size> <budget> [seed]\n"
         "  lmpeel tokenize <text…>\n"
         "  lmpeel stats [--json] [size] [icl_count] [seed]\n"
         "  lmpeel serve-bench [quick] [prefix|mixed|shard|recover] "
         "[--prefix on|off]\n"
         "  lmpeel chaos [seed] [requests]\n"
         "  lmpeel soak [--seconds N] [--seed N] [--budget BYTES] "
         "[--no-sick-window] [--no-prefix-cache] "
         "[--replicas N] [--kill-rate R] [--restart-rate R]\n"
         "  lmpeel top [path] [--interval-ms N] [--once]\n"
         "  lmpeel quant-check [int8|fp16] [seed]\n";
  return 2;
}

}  // namespace

// Defined in serve_bench.cpp; sweeps offered concurrency x max_batch over
// the engine and reports throughput and latency percentiles.
int cmd_serve_bench(int argc, char** argv);

namespace {

std::optional<perf::SizeClass> parse_size(const std::string& text) {
  for (const perf::SizeClass s : perf::kAllSizes) {
    if (text == perf::size_name(s)) return s;
  }
  return std::nullopt;
}

/// Engines over a GenericBatchDecoder admit whole prompts: a replay
/// prefill is one next_logits call, so chunks would only add ticks.
constexpr serve::EngineConfig kReplayEngine{.prefill_chunk_tokens = 0};

int cmd_dataset(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto size = parse_size(argv[0]);
  if (!size.has_value()) return usage();
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 42;
  const auto data =
      perf::Dataset::generate(perf::Syr2kModel{}, *size, seed);
  data.write_csv(std::cout);
  return 0;
}

int cmd_predict(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto size = parse_size(argv[0]);
  if (!size.has_value()) return usage();
  const std::size_t icl_count = std::strtoul(argv[1], nullptr, 10);
  const std::size_t query_index = std::strtoul(argv[2], nullptr, 10);
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                      : 0;

  core::Pipeline pipeline;
  const auto& data = pipeline.dataset(*size);
  if (query_index >= data.size() || icl_count == 0) return usage();

  util::Rng rng(seed);
  const auto subsets =
      perf::disjoint_subsets(data.size(), 1, icl_count, rng);
  std::vector<perf::Sample> examples;
  for (const std::size_t i : subsets[0]) examples.push_back(data[i]);

  const auto builder = pipeline.builder(*size);
  const auto ids = builder.encode(pipeline.tokenizer(), examples,
                                  data[query_index].config);
  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 0.998};
  gen.stop_token = pipeline.tokenizer().newline_token();
  gen.seed = seed;
  gen.record_trace = true;
  const auto generation = lm::generate(pipeline.model(), ids, gen);
  const std::string response =
      pipeline.tokenizer().decode(generation.tokens);
  const auto parsed = prompt::parse_response(response);

  std::cout << "query: "
            << prompt::render_config(data[query_index].config, *size) << '\n'
            << "response: '" << response << "'\n"
            << "truth: " << data[query_index].runtime << " s\n";
  if (parsed.value.has_value()) {
    std::cout << "predicted: " << *parsed.value << " s  (relative error "
              << eval::relative_error(data[query_index].runtime,
                                      *parsed.value)
              << ")\n";
  } else {
    std::cout << "no parseable value in the response\n";
  }
  std::cout << "candidates per step:";
  for (const auto& step : lm::recorded_trace(generation).steps()) {
    std::cout << ' ' << step.candidates.size();
  }
  std::cout << '\n';
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  core::Pipeline pipeline;
  core::SweepSettings settings;
  if (argc > 0 && std::strcmp(argv[0], "small") == 0) {
    settings.icl_counts = {1, 10, 50};
    settings.disjoint_sets = 2;
    settings.seeds = 2;
  }
  const auto result = core::run_llm_quality_sweep(pipeline, settings);
  const auto summary = core::summarize(result);
  std::cout << core::summary_table(summary).to_text() << '\n'
            << core::sweep_table(result).to_text();
  return 0;
}

int cmd_tune(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string name = argv[0];
  const auto size = parse_size(argv[1]);
  if (!size.has_value()) return usage();
  const std::size_t budget = std::strtoul(argv[2], nullptr, 10);
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                      : 7;
  if (budget == 0) return usage();

  core::Pipeline pipeline;
  // LLAMBO tuners batch their surrogate generations through a serve engine
  // (candidate pools decode concurrently instead of one at a time).
  std::unique_ptr<serve::GenericBatchDecoder> decoder;
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<tune::Tuner> tuner;
  if (name == "random") {
    tuner = std::make_unique<tune::RandomSearchTuner>();
  } else if (name == "gbt") {
    tuner = std::make_unique<tune::GbtSurrogateTuner>();
  } else if (name == "anneal") {
    tuner = std::make_unique<tune::AnnealingTuner>();
  } else if (name == "genetic") {
    tuner = std::make_unique<tune::GeneticTuner>();
  } else if (name.rfind("llambo-", 0) == 0) {
    tune::LlamboOptions options;
    if (name == "llambo-discriminative") {
      options.mode = tune::LlamboMode::Discriminative;
    } else if (name == "llambo-generative") {
      options.mode = tune::LlamboMode::Generative;
    } else if (name == "llambo-sampling") {
      options.mode = tune::LlamboMode::CandidateSampling;
    } else {
      return usage();
    }
    decoder = std::make_unique<serve::GenericBatchDecoder>(pipeline.model(),
                                                           /*slots=*/8);
    engine = std::make_unique<serve::Engine>(*decoder, kReplayEngine);
    options.engine = engine.get();
    tuner = std::make_unique<tune::LlamboTuner>(
        pipeline.model(), pipeline.tokenizer(), *size, options);
  } else {
    return usage();
  }

  tune::CampaignOptions options;
  options.budget = budget;
  options.seed = seed;
  const auto result =
      tune::run_campaign(*tuner, pipeline.perf_model(), *size, options);
  std::cout << tuner->name() << " on syr2k/" << perf::size_name(*size)
            << ", budget " << budget << ":\n";
  for (std::size_t i = 0; i < result.best_so_far.size(); ++i) {
    std::cout << "  eval " << (i + 1) << ": "
              << util::Table::num(result.evaluated[i].runtime, 4)
              << " s (best " << util::Table::num(result.best_so_far[i], 4)
              << ")\n";
  }
  std::cout << "best configuration: "
            << prompt::render_config(result.best_config(), *size) << '\n';
  return 0;
}

// Exercises the instrumented stack end to end (pipeline construction, BPE
// encode, a generation with trace capture, a short checkpointed
// GBT-surrogate tuning campaign, a fault-injected serve round through the
// retry client, and an engine-degraded LLAMBO proposal), then prints the
// metrics registry so every counter and latency percentile — including the
// robustness set fault.injected / serve.engine_error / serve.retry /
// tune.checkpoint_write / tune.fallback_direct — is nonzero and
// inspectable without a trace viewer.
int cmd_stats(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> pos;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      pos.emplace_back(argv[i]);
    }
  }
  const auto size = !pos.empty() ? parse_size(pos[0])
                                 : std::optional(perf::SizeClass::SM);
  if (!size.has_value()) return usage();
  const std::size_t icl_count =
      pos.size() > 1 ? std::strtoul(pos[1].c_str(), nullptr, 10) : 10;
  const std::uint64_t seed =
      pos.size() > 2 ? std::strtoull(pos[2].c_str(), nullptr, 10) : 0;
  if (icl_count == 0) return usage();

  // In --json mode the narrative goes nowhere; stdout carries exactly one
  // machine-readable object (write_stats_json) and nothing else.
  std::ostringstream discard;
  std::ostream& out = json ? static_cast<std::ostream&>(discard) : std::cout;

  core::Pipeline pipeline;
  const auto& data = pipeline.dataset(*size);

  util::Rng rng(seed);
  const auto subsets = perf::disjoint_subsets(data.size(), 1, icl_count, rng);
  std::vector<perf::Sample> examples;
  for (const std::size_t i : subsets[0]) examples.push_back(data[i]);

  const auto builder = pipeline.builder(*size);
  const auto ids = builder.encode(pipeline.tokenizer(), examples,
                                  data[0].config);
  lm::GenerateOptions gen;
  gen.sampler = {1.0, 0, 0.998};
  gen.stop_token = pipeline.tokenizer().newline_token();
  gen.seed = seed;
  const auto generation = lm::generate(pipeline.model(), ids, gen);
  out << "generated " << generation.tokens.size() << " tokens: '"
      << pipeline.tokenizer().decode(generation.tokens) << "'\n";

  tune::GbtSurrogateTuner tuner;
  tune::CampaignOptions options;
  options.budget = 12;
  options.seed = seed + 1;
  const std::string checkpoint_path =
      (std::filesystem::temp_directory_path() / "lmpeel_stats.ckpt")
          .string();
  std::remove(checkpoint_path.c_str());
  options.checkpoint.path = checkpoint_path;
  options.checkpoint.every = 4;
  const auto campaign =
      tune::run_campaign(tuner, pipeline.perf_model(), *size, options);
  std::remove(checkpoint_path.c_str());
  out << "tuned best runtime: "
      << util::Table::num(campaign.best_runtime(), 4) << " s\n";

  // Fault round: a plan that throws on the first decoder op and poisons
  // the second with NaN, so the retry client needs exactly two retries.
  {
    serve::GenericBatchDecoder inner(pipeline.model(), /*slots=*/2);
    fault::FaultEvent fault_throw;
    fault_throw.op = 0;
    fault_throw.kind = fault::FaultKind::StepThrow;
    fault::FaultEvent fault_nan;
    fault_nan.op = 1;
    fault_nan.kind = fault::FaultKind::NanLogits;
    fault::FaultyDecoder faulty(
        inner, fault::FaultPlan::from_events({fault_throw, fault_nan}));
    serve::Engine engine(faulty, kReplayEngine);
    // Breaker over the retry client: the two injected failures trip it
    // (threshold 2), the sub-millisecond cooldown elapses inside the
    // client's own backoff sleep, and the successful third attempt is the
    // half-open probe that closes it — one full state cycle, visible as
    // guard.breaker.* in the summary below.
    guard::Breaker breaker(guard::BreakerOptions{.failure_threshold = 2,
                                                 .open_s = 0.0005,
                                                 .seed = seed});
    serve::RetryOptions retry_options;
    retry_options.seed = seed;
    retry_options.base_delay_s = 0.001;
    retry_options.breaker = &breaker;
    serve::RetryClient retry(engine, retry_options);
    serve::Request request;
    request.prompt = ids;
    request.options = gen;
    const auto served = retry.generate(std::move(request));
    out << "fault round: " << serve::status_name(served.status) << " after "
        << retry.retries() << " retries (breaker "
        << guard::Breaker::state_name(breaker.state()) << ", opened "
        << breaker.opened() << "x)\n";
    engine.shutdown();

    // Guard round: an engine under a deliberately tiny memory budget sheds
    // a Batch-priority request at admission (guard.shed.batch,
    // guard.reserve_denied), proving the overload path without any fault
    // injection.
    {
      guard::Budget tiny_budget(64);
      serve::GenericBatchDecoder shed_inner(pipeline.model(), /*slots=*/2);
      serve::EngineConfig shed_config = kReplayEngine;
      shed_config.budget = &tiny_budget;
      serve::Engine shed_engine(shed_inner, shed_config);
      serve::Request shed_request;
      shed_request.prompt = ids;
      shed_request.options = gen;
      shed_request.priority = serve::Priority::Batch;
      const auto shed_result =
          shed_engine.submit(std::move(shed_request)).get();
      out << "guard round: batch request "
          << serve::status_name(shed_result.status) << " under a "
          << tiny_budget.limit() << "-byte budget\n";
      shed_engine.shutdown();
    }

    // One LLAMBO proposal against an engine whose decoder throws on every
    // op: the surrogate generation fails engine-side, falls back to direct
    // generation, and the tuner writes the engine off.
    fault::FaultPlanOptions throw_always;
    throw_always.horizon = 4096;
    throw_always.p_throw = 1.0;
    throw_always.p_nan = 0.0;
    throw_always.p_inf = 0.0;
    throw_always.p_delay = 0.0;
    fault::FaultyDecoder broken(
        inner, fault::FaultPlan::from_seed(seed, throw_always));
    serve::Engine broken_engine(broken, kReplayEngine);
    tune::LlamboOptions llambo_options;
    llambo_options.mode = tune::LlamboMode::CandidateSampling;
    llambo_options.engine = &broken_engine;
    tune::LlamboTuner llambo(pipeline.model(), pipeline.tokenizer(), *size,
                             llambo_options);
    tune::CampaignOptions llambo_campaign;
    llambo_campaign.budget = llambo_options.warmup + 1;
    llambo_campaign.seed = seed + 2;
    tune::run_campaign(llambo, pipeline.perf_model(), *size, llambo_campaign);
    out << "llambo degraded to direct generation: "
        << (llambo.engine_degraded() ? "yes" : "no") << "\n";
  }

  // Prefix-cache round: two requests through a transformer-backed decoder
  // share an 8-token prompt prefix.  The first prefills in full and seeds
  // the cache; the second forks its KV from the cached prefix and prefills
  // only its tail — so the cache.prefix.* rows (hits / inserts /
  // saved_prefill_tokens) below are nonzero and inspectable.  The slots
  // run on a paged KV pool (DESIGN.md §14), so the hit is a zero-copy page
  // share and the mem.pool.* rows surface too.
  {
    lm::TransformerConfig tiny;
    tiny.vocab = 64;
    tiny.d_model = 32;
    tiny.n_head = 2;
    tiny.n_layer = 1;
    tiny.max_seq = 32;
    lm::TransformerLm transformer(tiny, /*seed=*/seed + 3);
    mem::PagePoolConfig pool_config;
    pool_config.page_tokens = 4;
    pool_config.n_layer = static_cast<std::size_t>(tiny.n_layer);
    pool_config.d_model = static_cast<std::size_t>(tiny.d_model);
    mem::PagePool pool(pool_config);
    cache::PrefixCacheConfig cache_config;
    cache_config.page_tokens = pool.page_tokens();
    cache::PrefixCache prefix_cache(transformer, cache_config);
    serve::TransformerBatchDecoder decoder(transformer, /*slots=*/2,
                                           /*parallel=*/true, &pool);
    decoder.set_prefix_cache(&prefix_cache);
    serve::Engine cache_engine(decoder);
    for (const int tail : {31, 37}) {
      serve::Request request;
      request.prompt = {5, 7, 11, 13, 17, 19, 23, 29, tail};
      request.shared_prefix_tokens = 8;
      request.options.sampler.temperature = 0.0;
      request.options.stop_on_eos = false;
      request.options.max_tokens = 4;
      const auto served = cache_engine.submit(std::move(request)).get();
      LMPEEL_CHECK(served.status == serve::RequestStatus::Ok);
    }
    cache_engine.shutdown();
    auto& reg = obs::Registry::global();
    out << "prefix-cache round: "
        << reg.counter("cache.prefix.hits").value() << " hit(s), "
        << reg.counter("cache.prefix.saved_prefill_tokens").value()
        << " prefill tokens saved, "
        << reg.counter("cache.prefix.zero_copy_hits").value()
        << " zero-copy (" << reg.counter("mem.pool.page_shares").value()
        << " page shares)\n\n";
  }

  auto& registry = obs::Registry::global();
  const auto verdicts = obs::SloMonitor::evaluate(
      obs::MetricsSnapshot::from_registry(registry), obs::SloOptions{});
  if (json) {
    obs::write_stats_json(registry, verdicts, std::cout);
    return 0;
  }
  util::print_banner(std::cout, "obs metrics summary");
  std::cout << obs::summary_table(registry).to_text();
  if (!verdicts.empty()) {
    util::print_banner(std::cout, "slo verdicts (whole run)");
    std::cout << obs::SloMonitor::verdict_table(verdicts).to_text();
  }
  std::cout << "\n(set LMPEEL_TRACE=<path> to capture a Chrome trace of "
               "this run; --json for machine-readable output)\n";
  return 0;
}

// Runs the seeded chaos schedule from fault/chaos.hpp against the real
// model behind a GenericBatchDecoder and prints the survival report plus
// the robustness counters.  Exit status 0 iff the engine survived.
int cmd_chaos(int argc, char** argv) {
  const std::uint64_t seed = argc > 0 ? std::strtoull(argv[0], nullptr, 10)
                                      : 0;
  const std::size_t requests =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 32;
  if (requests == 0) return usage();

  core::Pipeline pipeline;
  fault::ChaosOptions options;
  options.seed = seed;
  options.requests = requests;
  serve::GenericBatchDecoder decoder(pipeline.model(), options.max_batch);

  std::cout << "chaos: seed " << seed << ", " << requests
            << " requests + recovery probe\n";
  const auto report = fault::run_chaos(decoder, options);

  util::print_banner(std::cout, "chaos survival report");
  std::cout << fault::chaos_table(report).to_text() << '\n';
  util::print_banner(std::cout, "obs metrics summary");
  std::cout << obs::summary_table(obs::Registry::global()).to_text();
  return report.survived() ? 0 : 1;
}

// Sustained mixed-priority overload soak (guard/soak.hpp): four client
// threads against a budgeted engine, a mid-run sick window for the
// breaker, and a graded report.  Exit 0 iff every property held — no
// crashes, budget honoured, only Batch work shed, High priority served,
// stable RSS, breaker exercised, paged pool fully drained at teardown and
// the prefix cache evicting under reservation pressure.
//
// --replicas N (N > 1) switches to the fleet soak (DESIGN.md §15): N
// engine replicas behind a shard::Router, per-replica budget children
// under one global cap, and --kill-rate seeded replica kills/stalls in
// place of the sick window.  The graded exit then additionally requires
// at least one successful failover and zero lost requests.
// --restart-rate adds resurrection (DESIGN.md §16): killed replicas come
// back through Router::revive — engine restart, cache re-warm, probation
// probes, atomic ring re-add — and the exit also requires at least one
// completed rejoin when kills happened.
int cmd_soak(int argc, char** argv) {
  guard::SoakOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seconds" && i + 1 < argc) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--budget" && i + 1 < argc) {
      options.budget_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--no-sick-window") {
      options.sick_window = false;
    } else if (arg == "--no-prefix-cache") {
      options.prefix_cache = false;
    } else if (arg == "--replicas" && i + 1 < argc) {
      options.replicas = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--kill-rate" && i + 1 < argc) {
      options.kill_rate = std::strtod(argv[++i], nullptr);
    } else if (arg == "--restart-rate" && i + 1 < argc) {
      options.restart_rate = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0.0 || options.replicas == 0) return usage();
  if (options.kill_rate < 0.0 || options.kill_rate > 1.0) return usage();
  if (options.restart_rate < 0.0 || options.restart_rate > 1.0) {
    return usage();
  }

  // The sick window is a single-engine fixture; fleet mode replaces it
  // with replica-level chaos, so its grade must not be demanded there.
  const bool sick = options.sick_window && options.replicas <= 1;
  std::cout << "soak: " << options.seconds << " s, seed " << options.seed
            << (sick ? ", sick window on" : ", sick window off")
            << (options.prefix_cache ? ", prefix cache on"
                                     : ", prefix cache off");
  if (options.replicas > 1) {
    std::cout << ", " << options.replicas << " replicas, kill rate "
              << options.kill_rate << ", restart rate "
              << options.restart_rate;
  }
  std::cout << "\n";
  const auto report = guard::run_soak(options);

  util::print_banner(std::cout, "soak report");
  std::cout << guard::soak_table(report, sick).to_text() << '\n';
  util::print_banner(std::cout, "obs metrics summary");
  std::cout << obs::summary_table(obs::Registry::global()).to_text();
  return report.passed(sick) ? 0 : 1;
}

// One refresh of the live dashboard: headline load signals from the latest
// published snapshot plus SLO verdicts — windowed once the monitor has seen
// two distinct snapshots, whole-run before that.
void render_top(const obs::MetricsSnapshot& snap,
                const obs::SloMonitor& monitor, const std::string& path) {
  util::Table table({"signal", "value"});
  const auto row = [&](const char* name, const std::string& value) {
    table.add_row({name, value});
  };
  const auto count = [](double v) {
    return std::to_string(static_cast<long long>(v));
  };
  row("stats t_s", util::Table::num(snap.t_s, 6));
  row("queue depth", count(snap.gauge("serve.queue_depth")));
  if (const auto* occupancy = snap.histogram("serve.batch_occupancy")) {
    row("batch occupancy p50/p99", util::Table::num(occupancy->p50, 1) +
                                       " / " +
                                       util::Table::num(occupancy->p99, 1));
  }
  const double hits = snap.counter("cache.prefix.hits");
  const double misses = snap.counter("cache.prefix.misses");
  row("cache hit ratio",
      hits + misses > 0.0 ? util::Table::num(hits / (hits + misses), 3)
                          : "-");
  const double limit = snap.gauge("guard.limit_bytes");
  row("budget headroom bytes",
      limit > 0.0 ? count(limit - snap.gauge("guard.reserved_bytes"))
                  : "(unbounded)");
  row("requests submitted", count(snap.counter("serve.requests_submitted")));
  row("tokens generated", count(snap.counter("serve.tokens_generated")));
  std::cout << "lmpeel top — " << path << "\n" << table.to_text() << '\n';

  const bool windowed = monitor.window_size() >= 2;
  const auto verdicts = windowed
                            ? monitor.verdicts()
                            : obs::SloMonitor::evaluate(snap,
                                                        monitor.options());
  if (!verdicts.empty()) {
    std::cout << (windowed ? "slo (windowed)\n" : "slo (whole run)\n")
              << obs::SloMonitor::verdict_table(verdicts).to_text();
  }
  std::cout.flush();
}

// Live SLO monitor over another process's stats stream.  The target runs
// with LMPEEL_STATS_JSON=<path> (its obs layer atomically republishes the
// whole registry there every LMPEEL_STATS_INTERVAL_MS); this side re-reads
// the file, feeds a sliding-window SloMonitor, and redraws.  `--once`
// renders a single frame without clearing the screen — the scriptable mode
// the tests use.
int cmd_top(int argc, char** argv) {
  std::string path;
  int interval_ms = 1000;
  bool once = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg == "--once") {
      once = true;
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) {
    if (const char* env = std::getenv("LMPEEL_STATS_JSON")) path = env;
  }
  if (path.empty()) {
    std::cerr << "lmpeel top: no stats file — pass a path or set "
                 "LMPEEL_STATS_JSON\n";
    return usage();
  }
  if (interval_ms < 50) interval_ms = 50;

  obs::SloMonitor monitor;
  double last_t = -1.0;
  for (;;) {
    obs::MetricsSnapshot snap;
    bool have = false;
    {
      std::ifstream in(path);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        have = obs::MetricsSnapshot::parse_jsonl(buffer.str(), snap);
      }
    }
    if (have && snap.t_s != last_t) {
      monitor.observe(snap);
      last_t = snap.t_s;
    }
    if (!once) std::cout << "\x1b[2J\x1b[H";  // clear screen, cursor home
    if (have) {
      render_top(snap, monitor, path);
    } else {
      std::cout << "lmpeel top: waiting for " << path << " …" << std::endl;
    }
    if (once) return have ? 0 : 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

// Health report for the quantized backend (DESIGN.md §17): which kernel
// arch CPUID dispatch picked, what quantizing a seeded reference model
// costs per tensor (scale, max/rms error, bytes), and how far the
// quantized logits drift from f32 on a seeded prompt.  The drift lands in
// the quant.max_abs_logit_drift gauge as well as stdout, so a stats sink
// can watch it.
int cmd_quant_check(int argc, char** argv) {
  auto format = quant::WeightFormat::kInt8;
  std::uint64_t seed = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "int8") {
      format = quant::WeightFormat::kInt8;
    } else if (arg == "fp16") {
      format = quant::WeightFormat::kFp16;
    } else if (!arg.empty() && std::isdigit(arg[0]) != 0) {
      seed = std::strtoull(arg.c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }

  const quant::Arch arch = quant::dispatched_arch();
  std::cout << "dispatched kernel arch: " << quant::arch_name(arch)
            << " (host best: "
            << quant::arch_name(quant::best_supported_arch());
  if (std::getenv("LMPEEL_FORCE_ARCH") != nullptr) {
    std::cout << ", forced by LMPEEL_FORCE_ARCH";
  }
  std::cout << ")\n";

  lm::TransformerConfig config;
  config.vocab = 512;
  config.d_model = 96;
  config.n_head = 4;
  config.n_layer = 2;
  config.max_seq = 64;
  lm::TransformerLm model(config, seed);
  quant::QuantizedLm quantized(model, format, arch);
  std::cout << "reference model: d_model " << config.d_model << ", layers "
            << config.n_layer << ", vocab " << config.vocab << ", seed "
            << seed << " (" << model.parameter_count() << " parameters)\n"
            << "weight format: " << quant::format_name(format) << ", "
            << quantized.weight_bytes() << " bytes ("
            << util::Table::num(
                   static_cast<double>(quantized.weight_bytes()) /
                       static_cast<double>(quantized.f32_weight_bytes()),
                   3)
            << "x f32)\n";

  util::Table table({"tensor", "shape", "scale", "max_err", "rms_err",
                     "bytes"});
  for (const auto& report : quantized.tensor_reports()) {
    table.add_row({report.name,
                   std::to_string(report.rows) + "x" +
                       std::to_string(report.cols),
                   format == quant::WeightFormat::kInt8
                       ? util::Table::num(report.scale, 6)
                       : "-",
                   util::Table::num(report.max_abs_error, 6),
                   util::Table::num(report.rms_error, 6),
                   std::to_string(report.bytes)});
  }
  util::print_banner(std::cout, "per-tensor quantization");
  std::cout << table.to_text();

  // Seeded drift probe: greedy logits after a fixed prompt, f32 vs
  // quantized.  Deterministic on a given host+format+arch, so this number
  // is comparable run to run.
  util::Rng rng(seed, /*stream=*/0x9c);
  std::vector<int> prompt(24);
  for (auto& id : prompt) {
    id = static_cast<int>(rng.uniform_int(5, config.vocab - 1));
  }
  std::vector<float> f32_logits(config.vocab), q_logits(config.vocab);
  model.next_logits(prompt, /*seed=*/0, f32_logits);
  quantized.next_logits(prompt, /*seed=*/0, q_logits);
  float max_drift = 0.0f;
  double sq = 0.0;
  int argmax_f32 = 0, argmax_q = 0;
  for (int v = 0; v < config.vocab; ++v) {
    const float drift = std::abs(q_logits[v] - f32_logits[v]);
    max_drift = std::max(max_drift, drift);
    sq += static_cast<double>(drift) * drift;
    if (f32_logits[v] > f32_logits[argmax_f32]) argmax_f32 = v;
    if (q_logits[v] > q_logits[argmax_q]) argmax_q = v;
  }
  obs::Registry::global()
      .gauge("quant.max_abs_logit_drift")
      .set(static_cast<double>(max_drift));
  std::cout << "logit drift on seeded prompt (" << prompt.size()
            << " tokens): max "
            << util::Table::num(static_cast<double>(max_drift), 6) << ", rms "
            << util::Table::num(std::sqrt(sq / config.vocab), 6)
            << ", greedy argmax " << (argmax_f32 == argmax_q ? "agrees"
                                                             : "DIFFERS")
            << " (f32 " << argmax_f32 << ", "
            << quant::format_name(format) << " " << argmax_q << ")\n";
  return 0;
}

int cmd_tokenize(int argc, char** argv) {
  std::string text;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) text += ' ';
    text += argv[i];
  }
  core::Pipeline pipeline;
  const auto ids = pipeline.tokenizer().encode(text);
  std::cout << ids.size() << " tokens:";
  for (const int id : ids) {
    std::cout << " [" << pipeline.tokenizer().token_text(id) << "]";
  }
  std::cout << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "dataset") return cmd_dataset(argc - 2, argv + 2);
    if (command == "predict") return cmd_predict(argc - 2, argv + 2);
    if (command == "sweep") return cmd_sweep(argc - 2, argv + 2);
    if (command == "tune") return cmd_tune(argc - 2, argv + 2);
    if (command == "tokenize") return cmd_tokenize(argc - 2, argv + 2);
    if (command == "stats") return cmd_stats(argc - 2, argv + 2);
    if (command == "serve-bench") return cmd_serve_bench(argc - 2, argv + 2);
    if (command == "chaos") return cmd_chaos(argc - 2, argv + 2);
    if (command == "soak") return cmd_soak(argc - 2, argv + 2);
    if (command == "top") return cmd_top(argc - 2, argv + 2);
    if (command == "quant-check") return cmd_quant_check(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
