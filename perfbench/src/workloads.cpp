#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cache/prefix_cache.hpp"
#include "core/pipeline.hpp"
#include "guard/budget.hpp"
#include "lm/generate.hpp"
#include "lm/transformer.hpp"
#include "mem/page_pool.hpp"
#include "obs/metrics.hpp"
#include "quant/quantized_lm.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "tok/vocab.hpp"
#include "tune/campaign.hpp"
#include "tune/llambo_tuner.hpp"
#include "util/rng.hpp"
#include "wrappers.hpp"

namespace perfbench {

double Params::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("missing workload parameter '" + key +
                                "' (set it in BENCHMARK.json)");
  }
  return it->second;
}

namespace {

using namespace lmpeel;

constexpr std::size_t kSetups = 5;      // set-up repeats; setup_s = median
constexpr std::size_t kBatch = 8;       // engine max_batch = decoder slots
constexpr std::size_t kPageTokens = 16;

double seconds_between(Nanos a, Nanos b) {
  return static_cast<double>(b - a) * 1e-9;
}

// ---- models and set-up -----------------------------------------------------

/// Model shape per workload.  Sized so one batched decode step costs
/// milliseconds on a 4-core x86 host: sub-millisecond steps make a run
/// measure thread hand-offs rather than the layers.
struct Shape {
  int d_model;
  int n_head;
  int n_layer;
  int max_seq;
  bool int8;
};

Shape shape_for(const std::string& workload) {
  if (workload == "campaign") return {128, 2, 2, 1280, false};
  if (workload == "decode") return {128, 2, 2, 128, false};
  return {128, 2, 4, 320, true};  // ingest
}

struct Models {
  std::unique_ptr<core::Pipeline> pipeline;
  std::unique_ptr<lm::TransformerLm> f32;
  std::unique_ptr<quant::QuantizedLm> int8;

  lm::KvBackend& backend() {
    if (int8) return *int8;
    return *f32;
  }
  /// The same object as backend(), as the serial-reference model.
  lm::LanguageModel& model() {
    if (int8) return *int8;
    return *f32;
  }
  /// Weight bytes one decode_batch call streams (computed from tensor
  /// sizes, not measured).
  std::size_t weight_bytes() const {
    return int8 ? int8->weight_bytes() : f32->parameter_count() * sizeof(float);
  }
};

std::unique_ptr<Models> build_models(const Shape& shape) {
  auto models = std::make_unique<Models>();
  models->pipeline = std::make_unique<core::Pipeline>();  // trains the BPE
  lm::TransformerConfig config;
  config.vocab = models->pipeline->tokenizer().vocab_size();
  config.d_model = shape.d_model;
  config.n_head = shape.n_head;
  config.n_layer = shape.n_layer;
  config.max_seq = shape.max_seq;
  models->f32 = std::make_unique<lm::TransformerLm>(config, /*seed=*/1);
  if (shape.int8) {
    models->int8 = std::make_unique<quant::QuantizedLm>(
        *models->f32, quant::WeightFormat::kInt8);
  }
  return models;
}

/// A prompt of `length` ordinary tokens whose first two ids spell `index`,
/// so prompts of one run share no prefix (no prefix-cache hits).
std::vector<int> unique_prompt(util::Rng& rng, std::size_t index,
                               std::size_t length, int vocab) {
  const std::int64_t lo = tok::kNumSpecial;
  const std::int64_t span = vocab - lo;
  std::vector<int> prompt;
  prompt.reserve(length);
  const auto i = static_cast<std::int64_t>(index);
  prompt.push_back(static_cast<int>(lo + i % span));
  prompt.push_back(static_cast<int>(lo + (i / span) % span));
  while (prompt.size() < length) {
    prompt.push_back(static_cast<int>(lo + rng.uniform_int(0, span - 1)));
  }
  return prompt;
}

lm::GenerateOptions fixed_length(std::size_t tokens) {
  lm::GenerateOptions options;
  options.sampler.temperature = 0.0;  // greedy
  options.max_tokens = tokens;
  options.stop_on_eos = false;
  return options;
}

// ---- serving stack ---------------------------------------------------------

struct StackOptions {
  cache::PrefixCacheConfig cache;
  guard::Budget* budget = nullptr;
  std::size_t queue_capacity = 64;
};

/// Paged pool + prefix cache + batch decoder + engine (two-stage chunked
/// prefill), each behind its timing wrapper.  The decoder runs with
/// parallel=false: on a small shared host the thread-pool split of an 8-row
/// step measures OS scheduling.
class ServeStack {
 public:
  ServeStack(lm::KvBackend& backend, Recorder& recorder,
             const StackOptions& options)
      : timed_backend_(backend, recorder),
        pool_(pool_config(backend.config())),
        cache_(timed_backend_, cache_config(options.cache)),
        decoder_(timed_backend_, kBatch, /*parallel=*/false, &pool_),
        timed_decoder_(decoder_, recorder, &pool_, options.budget) {
    decoder_.set_prefix_cache(&cache_);
    serve::EngineConfig config;
    config.max_batch = kBatch;
    config.queue_capacity = options.queue_capacity;
    config.budget = options.budget;
    engine_ = std::make_unique<serve::Engine>(timed_decoder_, config);
    client_ = std::make_unique<TimedClient>(*engine_, recorder);
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  TimedClient& client() { return *client_; }
  const TimedDecoder& decoder() const { return timed_decoder_; }
  void shutdown() { engine_->shutdown(); }

 private:
  static mem::PagePoolConfig pool_config(const lm::TransformerConfig& c) {
    mem::PagePoolConfig config;
    config.page_tokens = kPageTokens;
    config.n_layer = static_cast<std::size_t>(c.n_layer);
    config.d_model = static_cast<std::size_t>(c.d_model);
    return config;
  }
  cache::PrefixCacheConfig cache_config(cache::PrefixCacheConfig config) {
    config.page_tokens = kPageTokens;
    config.reload_pool = &pool_;
    return config;
  }

  TimedBackend timed_backend_;
  mem::PagePool pool_;
  cache::PrefixCache cache_;
  serve::TransformerBatchDecoder decoder_;
  TimedDecoder timed_decoder_;
  std::unique_ptr<serve::Engine> engine_;
  std::unique_ptr<TimedClient> client_;
};

// ---- registry counters (existing names only) -------------------------------

struct Counters {
  std::uint64_t hits = 0, misses = 0, inserts = 0, evictions = 0;
  std::uint64_t saved_tokens = 0, pool_exhausted = 0, shed = 0;
  std::uint64_t forward_tokens = 0;

  static Counters read() {
    obs::Registry& r = obs::Registry::global();
    Counters c;
    c.hits = r.counter("cache.prefix.hits").value();
    c.misses = r.counter("cache.prefix.misses").value();
    c.inserts = r.counter("cache.prefix.inserts").value();
    c.evictions = r.counter("cache.prefix.evictions").value();
    c.saved_tokens = r.counter("cache.prefix.saved_prefill_tokens").value();
    c.pool_exhausted = r.counter("mem.pool.exhausted").value();
    c.shed = r.counter("guard.shed.batch").value() +
             r.counter("guard.shed.normal").value() +
             r.counter("guard.shed.high").value();
    c.forward_tokens = r.counter("lm.transformer.forward_tokens").value() +
                       r.counter("lm.transformer.decode_tokens").value();
    return c;
  }
  void add(const Counters& d) {
    hits += d.hits;
    misses += d.misses;
    inserts += d.inserts;
    evictions += d.evictions;
    saved_tokens += d.saved_tokens;
    pool_exhausted += d.pool_exhausted;
    shed += d.shed;
    forward_tokens += d.forward_tokens;
  }
  Counters since(const Counters& b) const {
    Counters d;
    d.hits = hits - b.hits;
    d.misses = misses - b.misses;
    d.inserts = inserts - b.inserts;
    d.evictions = evictions - b.evictions;
    d.saved_tokens = saved_tokens - b.saved_tokens;
    d.pool_exhausted = pool_exhausted - b.pool_exhausted;
    d.shed = shed - b.shed;
    d.forward_tokens = forward_tokens - b.forward_tokens;
    return d;
  }
};

// ---- metric assembly -------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// obs.trace_overhead_share: cost per unit of work in traced blocks over
/// the same in untraced blocks, minus 1 (0 when either side is empty).
double overhead(double traced_cost, double traced_units, double plain_cost,
                double plain_units) {
  if (traced_units <= 0.0 || plain_units <= 0.0 || plain_cost <= 0.0) {
    return 0.0;
  }
  return (traced_cost / traced_units) / (plain_cost / plain_units) - 1.0;
}

void add_summary(std::vector<Metric>& out, const std::string& stem,
                 const std::string& unit, const std::vector<double>& values) {
  const Summary s = summarize(values);
  char note[64];
  std::snprintf(note, sizeof(note), "tail = p%.1f", s.tail_percentile);
  out.push_back({stem + "_p50", s.p50, unit, s.n, ""});
  out.push_back({stem + "_tail", s.tail, unit, s.n, note});
}

/// Per-request latencies shared by every workload.
struct RequestTimes {
  std::vector<double> ttft_ms, tpot_ms;
  std::size_t ok = 0, met = 0, tokens = 0;
};

/// Goodput counts a request that met the TTFT limit and, when it has a
/// second token, the TPOT limit; a failure misses.
RequestTimes request_times(const std::vector<RequestRecord>& records,
                           double ttft_limit_ms, double tpot_limit_ms) {
  RequestTimes t;
  for (const RequestRecord& r : records) {
    if (r.status != serve::RequestStatus::Ok) continue;
    ++t.ok;
    t.tokens += r.tokens;
    const double ttft = r.ttft_s * 1e3;
    t.ttft_ms.push_back(ttft);
    bool met = ttft <= ttft_limit_ms;
    if (r.tokens >= 2) {
      const double tpot =
          (r.total_s - r.ttft_s) * 1e3 / static_cast<double>(r.tokens - 1);
      t.tpot_ms.push_back(tpot);
      met = met && tpot <= tpot_limit_ms;
    }
    if (met) ++t.met;
  }
  return t;
}

/// Everything the per-layer metrics are computed from.
struct LayerInput {
  std::vector<Span> spans;
  std::vector<Interval> traced_wall;  ///< where per-call spans were on
  std::vector<RequestRecord> records;
  Counters counters;  ///< measured-phase delta
  std::size_t ops = 0;
  std::size_t weight_bytes = 0;
  std::uint64_t steps = 0;
  std::uint64_t rows = 0;
  std::size_t pages_peak = 0;
  std::size_t reserved_peak_bytes = 0;
  double overhead_share = 0.0;
  std::vector<double> tune_self_ms;
  double parse_fail_share = 0.0;
  std::size_t fallbacks = 0;
  double late_ms_max = 0.0;
};

/// The decoder wrapper's counts and peaks for one serving stack.
void read_decoder(LayerInput& in, const TimedDecoder& decoder) {
  in.steps = decoder.steps();
  in.rows = decoder.rows();
  in.pages_peak = decoder.pages_peak();
  in.reserved_peak_bytes = decoder.reserved_peak_bytes();
}

std::vector<Metric> layer_metrics(const LayerInput& in) {
  const std::vector<Interval> wall = union_of(in.traced_wall);
  std::vector<Interval> prefill_iv, decode_iv;
  std::vector<double> decode_ms, lookup_us;
  std::uint64_t prefill_tokens = 0, decode_rows = 0, decode_calls = 0;
  std::uint64_t generated = 0;
  for (const Span& s : in.spans) {
    if (s.layer != Layer::Lm && s.layer != Layer::Decoder) continue;
    const double ms = static_cast<double>(s.t1 - s.t0) * 1e-6;
    switch (s.op) {
      case Op::Prefill:
      case Op::PrefillFrom:
        prefill_iv.push_back({s.t0, s.t1});
        prefill_tokens += s.n;
        break;
      case Op::DecodeBatch:
        decode_iv.push_back({s.t0, s.t1});
        decode_ms.push_back(ms);
        decode_rows += s.n;
        ++decode_calls;
        break;
      case Op::Step:
        generated += s.n;  // one sampled token per stepped row
        break;
      case Op::Start:
        ++generated;  // first token sampled from the prefill logits
        break;
      case Op::PrefillChunk:
        if (s.done) ++generated;
        break;
      case Op::PreparePrefix:
        lookup_us.push_back(ms * 1e3);
        break;
      default:
        break;
    }
  }
  const double prefill_busy =
      static_cast<double>(total_length(intersect(prefill_iv, wall))) * 1e-9;
  const double decode_busy =
      static_cast<double>(total_length(union_of(decode_iv))) * 1e-9;
  const Attribution attribution = attribute(in.spans, wall);

  std::vector<Metric> m;
  m.push_back({"lm.prefill_tok_s",
               ratio(static_cast<double>(prefill_tokens), prefill_busy),
               "tok/s", prefill_iv.size(), ""});
  m.push_back({"lm.prefill_busy_s", prefill_busy, "s", prefill_iv.size(), ""});
  if (decode_ms.empty()) decode_ms.push_back(0.0);
  add_summary(m, "lm.decode_step_ms", "ms", decode_ms);
  m.push_back({"lm.decode_tok_s",
               ratio(static_cast<double>(decode_rows), decode_busy), "tok/s",
               decode_calls, ""});
  m.push_back({"lm.decode_gb_s",
               ratio(static_cast<double>(in.weight_bytes) *
                         static_cast<double>(decode_calls) * 1e-9,
                     decode_busy),
               "GB/s", decode_calls, "computed: weight bytes per call / time"});
  m.push_back({"lm.forward_tokens_per_op",
               ratio(static_cast<double>(in.counters.forward_tokens),
                     static_cast<double>(in.ops)),
               "count/op", in.ops, ""});
  m.push_back({"serve.self_us_per_token",
               ratio(attribution.self(Layer::Serve) * 1e6,
                     static_cast<double>(generated)),
               "us/token", generated, ""});
  m.push_back({"serve.decoder_self_ms", attribution.self(Layer::Decoder) * 1e3,
               "ms", 0, ""});
  std::vector<double> queue_ms;
  std::size_t prompt_tokens = 0;
  for (const RequestRecord& r : in.records) {
    queue_ms.push_back(r.queue_wait_s * 1e3);
    prompt_tokens += r.prompt_tokens;
  }
  add_summary(m, "serve.queue_wait_ms", "ms", queue_ms);
  m.push_back({"serve.batch_rows_mean",
               ratio(static_cast<double>(in.rows),
                     static_cast<double>(in.steps)),
               "rows", in.steps, ""});
  m.push_back({"serve.ticks",
               ratio(static_cast<double>(in.steps),
                     static_cast<double>(in.ops)),
               "count/op", in.ops, ""});
  m.push_back({"cache.lookup_us_p50",
               lookup_us.empty() ? 0.0 : median(lookup_us), "us",
               lookup_us.size(), ""});
  const Counters& c = in.counters;
  m.push_back({"cache.hit_share",
               ratio(static_cast<double>(c.hits),
                     static_cast<double>(c.hits + c.misses)),
               "share", c.hits + c.misses, ""});
  m.push_back({"cache.saved_token_share",
               ratio(static_cast<double>(c.saved_tokens),
                     static_cast<double>(prompt_tokens)),
               "share", prompt_tokens, ""});
  m.push_back({"cache.inserts",
               ratio(static_cast<double>(c.inserts),
                     static_cast<double>(in.ops)),
               "count/op", in.ops, ""});
  m.push_back({"cache.evictions",
               ratio(static_cast<double>(c.evictions),
                     static_cast<double>(in.ops)),
               "count/op", in.ops, ""});
  m.push_back({"tune.self_ms_p50",
               in.tune_self_ms.empty() ? 0.0 : median(in.tune_self_ms), "ms",
               in.tune_self_ms.size(), ""});
  m.push_back({"tune.parse_fail_share", in.parse_fail_share, "share", 0, ""});
  m.push_back({"tune.fallbacks", static_cast<double>(in.fallbacks), "count", 0,
               ""});
  m.push_back({"mem.pages_peak", static_cast<double>(in.pages_peak), "pages",
               0, ""});
  m.push_back({"mem.pool_exhausted", static_cast<double>(c.pool_exhausted),
               "count", 0, ""});
  m.push_back({"guard.shed", static_cast<double>(c.shed), "count", 0, ""});
  m.push_back({"guard.reserved_peak_mb",
               static_cast<double>(in.reserved_peak_bytes) / (1024.0 * 1024.0),
               "MB", 0, ""});
  m.push_back({"obs.trace_overhead_share", in.overhead_share, "share", 0, ""});
  m.push_back({"trace.unattributed_share", attribution.unattributed_share(),
               "share", 0, ""});
  m.push_back({"gen.late_ms_max", in.late_ms_max, "ms", 0, ""});
  return m;
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
void add_end_to_end(Report& report, double setup_s, const RequestTimes& t,
                    std::size_t attempted, double tok_s,
                    const std::vector<double>& op_ms, double ops_per_s,
                    std::size_t setup_n) {
  std::vector<Metric>& m = report.end_to_end;
  m.push_back({"setup_s", setup_s, "s", setup_n, "median of set-ups"});
  m.push_back({"ok_share",
               ratio(static_cast<double>(t.ok), static_cast<double>(attempted)),
               "share", attempted, ""});
  m.push_back({"tok_s", tok_s, "tok/s", t.tokens, ""});
  add_summary(m, "ttft_ms", "ms", t.ttft_ms);
  add_summary(m, "tpot_ms", "ms", t.tpot_ms);
  m.push_back({"goodput",
               ratio(static_cast<double>(t.met),
                     static_cast<double>(attempted)),
               "share", attempted, ""});
  add_summary(m, "op_ms", "ms", op_ms);
  m.push_back({"ops_per_s", ops_per_s, "1/s", op_ms.size(), ""});
  for (const Metric& metric : m) {
    if (metric.name.ends_with("_tail") && metric.n <= kTailBeyond) {
      report.correct = false;
      report.failures.push_back(metric.name + ": only " +
                                std::to_string(metric.n) +
                                " samples, the tail needs more than 10");
    }
  }
}

void fail(Report& report, const std::string& why) {
  report.correct = false;
  report.failures.push_back(why);
}

/// Writes the run's spans to <state_dir>/spans-<workload>.jsonl.
void write_spans(Report& report, const Recorder& recorder,
                 const RunOptions& opt) {
  if (opt.state_dir.empty()) return;
  const std::string path = opt.state_dir + "/spans-" + opt.workload + ".jsonl";
  if (!recorder.write_jsonl(path)) {
    report.notes.push_back("could not write spans to " + path);
  }
}

/// Requests that did not complete Ok.
std::size_t failed_requests(const std::vector<RequestRecord>& records) {
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(), [](const RequestRecord& r) {
        return r.status != serve::RequestStatus::Ok;
      }));
}

/// Serves a few requests of the workload's shape through a throwaway stack
/// so first-touch costs (page faults, lazy kernels) land in set-up.
void warm_up(Models& models, std::size_t prompt_tokens,
             std::size_t output_tokens) {
  Recorder quiet;
  ServeStack stack(models.backend(), quiet, StackOptions{});
  util::Rng rng(0x3a, 0x3b);
  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t i = 0; i < 2; ++i) {
    serve::Request request;
    request.prompt =
        unique_prompt(rng, i, prompt_tokens, models.backend().vocab_size());
    request.options = fixed_length(output_tokens);
    futures.push_back(stack.client().submit(std::move(request)));
  }
  for (auto& f : futures) f.get();
  stack.shutdown();
}

struct SetupResult {
  /// One bit-identical model set per set-up.  Where a workload rotates
  /// through them, a run averages over several memory placements of the
  /// weights: one placement can be ~10% slower than another.
  std::vector<std::unique_ptr<Models>> instances;
  double median_s = 0.0;
  std::vector<double> times_s;
  Models& last() { return *instances.back(); }
};

/// Builds the models kSetups times (the first timed from process start);
/// setup_s is the median.
SetupResult timed_setup(const std::string& workload, Nanos process_start,
                        std::size_t warm_prompt, std::size_t warm_output) {
  SetupResult out;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Nanos t0 = i == 0 ? process_start : now_ns();
    out.instances.push_back(build_models(shape_for(workload)));
    warm_up(*out.instances.back(), warm_prompt, warm_output);
    out.times_s.push_back(seconds_between(t0, now_ns()));
  }
  out.median_s = median(out.times_s);
  return out;
}

void note_setup(Report& report, const SetupResult& setup) {
  std::string line = "set-up runs (s):";
  for (const double t : setup.times_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", t);
    line += buf;
  }
  report.notes.push_back(line);
}

// ---- campaign --------------------------------------------------------------

/// Serves the LLAMBO prompt preamble (system + problem text, laid out as
/// PromptBuilder::encode_prefix does) once with a shared-prefix hint, so
/// the prefix cache holds it.
void warm_base_prompt(ServeStack& stack, Models& models) {
  const prompt::PromptBuilder builder =
      models.pipeline->builder(perf::SizeClass::SM);
  const tok::Tokenizer& tokenizer = models.pipeline->tokenizer();
  serve::Request request;
  request.prompt = {tok::kBos, tok::kSystem};
  tokenizer.encode_append(builder.system_text(), request.prompt);
  request.prompt.push_back(tok::kUser);
  tokenizer.encode_append(builder.problem_text() + "\n", request.prompt);
  request.shared_prefix_tokens = request.prompt.size();
  request.options = fixed_length(1);
  stack.client().submit(std::move(request)).get();
}

constexpr std::size_t kCampaignWarmup = 4;
constexpr std::size_t kCampaignBudget = 12;  // < kMaxIcl: the ICL block
constexpr std::size_t kMaxIcl = 12;          // only grows, never slides
constexpr std::size_t kMinCampaigns = 2;

/// Stable digest of an evaluated-config sequence.
std::uint64_t sequence_digest(const std::vector<std::size_t>& sequence) {
  std::uint64_t h = 0x5eed;
  for (const std::size_t index : sequence) {
    h = util::hash_combine(h, static_cast<std::uint64_t>(index));
  }
  return h;
}

/// Cross-run check: every run of a set with the same seed (and campaign
/// shape) must evaluate the same configurations.  The ledger lives in the
/// build directory.
void check_ledger(Report& report, const std::string& state_dir,
                  std::uint64_t key, std::uint64_t digest) {
  const std::string path = state_dir + "/campaign-sequences.txt";
  {
    std::ifstream in(path);
    std::uint64_t s = 0, d = 0;
    while (in >> s >> d) {
      if (s == key) {
        if (d != digest) {
          fail(report, "campaign config sequence differs from an earlier "
                       "run with the same seed");
        }
        return;
      }
    }
  }
  std::ofstream out(path, std::ios::app);
  out << key << ' ' << digest << '\n';
}

Report run_campaign(const RunOptions& opt, Nanos process_start) {
  Report report;
  const double ttft_limit = opt.params.get("ttft_limit_ms");
  const double tpot_limit = opt.params.get("tpot_limit_ms");
  SetupResult setup = timed_setup(opt.workload, process_start, 320, 8);
  note_setup(report, setup);
  const std::uint64_t campaign_seed = util::hash_combine(opt.seed, 0xca);

  Recorder recorder;
  Counters delta;
  std::vector<RequestRecord> records;
  std::vector<double> op_ms, tune_self_ms;
  std::vector<Interval> traced_wall;
  double wall_traced = 0.0, wall_untraced = 0.0;
  std::size_t n_traced = 0, n_untraced = 0;
  std::size_t parse_failures = 0, fallbacks = 0;
  std::size_t pages_peak = 0;
  std::uint64_t steps = 0, rows = 0;
  // Rates are medians over campaigns, so a host stall during one campaign
  // does not move them.
  std::vector<double> tok_rates, eval_rates;
  std::vector<std::size_t> first_sequence;

  const Nanos deadline =
      now_ns() + static_cast<Nanos>(opt.seconds * 1e9);
  for (std::size_t c = 0; c < kMinCampaigns || now_ns() < deadline; ++c) {
    const bool traced = opt.trace && c % 2 == 1;
    Models& models = *setup.instances[c % setup.instances.size()];
    std::vector<std::size_t> sequence;
    Nanos t0 = 0, t1 = 0;
    {
      // Each campaign gets a fresh stack whose prefix cache holds only the
      // shared system + problem prompt (what a serving deployment keeps
      // warm), so every campaign of a run does identical work.  Stack
      // construction and that warm request happen before the clock starts.
      ServeStack stack(*models.f32, recorder, StackOptions{});
      warm_base_prompt(stack, models);
      const Counters before = Counters::read();
      recorder.set_enabled(traced);
      t0 = now_ns();
      tune::LlamboOptions llambo;
      llambo.mode = tune::LlamboMode::Discriminative;
      llambo.warmup = kCampaignWarmup;
      llambo.candidate_pool = kBatch;
      llambo.max_icl = kMaxIcl;
      llambo.engine = &stack.client();
      tune::LlamboTuner tuner(*models.f32, models.pipeline->tokenizer(),
                              perf::SizeClass::SM, llambo);
      TimedTuner timed(tuner, recorder);
      tune::CampaignOptions options;
      options.budget = kCampaignBudget;
      options.seed = campaign_seed;
      const tune::CampaignResult result =
          tune::run_campaign(timed, models.pipeline->perf_model(),
                             perf::SizeClass::SM, options);
      t1 = now_ns();
      recorder.set_enabled(false);
      delta.add(Counters::read().since(before));
      stack.shutdown();
      for (const perf::Sample& s : result.evaluated) {
        sequence.push_back(s.config_index);
      }
      parse_failures += tuner.parse_failures();
      fallbacks += tuner.direct_fallbacks();
      std::size_t tokens = 0;
      for (const RequestRecord& r : stack.client().records()) {
        if (r.submit_ns < t0) continue;  // the preamble warm-up
        records.push_back(r);
        tokens += r.tokens;
      }
      tok_rates.push_back(static_cast<double>(tokens) /
                          seconds_between(t0, t1));
      eval_rates.push_back(static_cast<double>(result.evaluated.size()) /
                           seconds_between(t0, t1));
      pages_peak = std::max(pages_peak, stack.decoder().pages_peak());
      steps += stack.decoder().steps();
      rows += stack.decoder().rows();
    }
    const double wall = seconds_between(t0, t1);
    if (traced) {
      traced_wall.push_back({t0, t1});
      wall_traced += wall;
      ++n_traced;
    } else {
      wall_untraced += wall;
      ++n_untraced;
    }
    if (c == 0) {
      first_sequence = sequence;
    } else if (sequence != first_sequence) {
      fail(report, "campaign " + std::to_string(c) +
                       " evaluated another config sequence than campaign 0");
    }
  }
  const std::vector<Span> spans = recorder.snapshot();

  // Proposal latency: LLM-backed propose() calls only (the first
  // kCampaignWarmup of each campaign are random draws that never reach the
  // model).  Self time = propose minus time blocked in the client.
  std::vector<const Span*> proposes, blocked, llm_proposes;
  for (const Span& s : spans) {
    if (s.layer == Layer::Tune && s.op == Op::Propose) proposes.push_back(&s);
    if (s.layer == Layer::Client) blocked.push_back(&s);
  }
  for (std::size_t i = 0; i < proposes.size(); ++i) {
    if (i % kCampaignBudget < kCampaignWarmup) continue;
    const Span& p = *proposes[i];
    llm_proposes.push_back(&p);
    op_ms.push_back(static_cast<double>(p.t1 - p.t0) * 1e-6);
    Nanos waiting = 0;
    for (const Span* b : blocked) {
      if (b->thread == p.thread && b->t0 >= p.t0 && b->t1 <= p.t1) {
        waiting += b->t1 - b->t0;
      }
    }
    tune_self_ms.push_back(static_cast<double>(p.t1 - p.t0 - waiting) * 1e-6);
  }

  RequestTimes times = request_times(
      records, ttft_limit, tpot_limit);
  // TTFT and TPOT per proposal (median of its candidates): the 8 siblings
  // interleave in chunked prefill, so one request's latency depends on its
  // place in the batch, while the proposal's median moves with the code.
  times.ttft_ms.clear();
  times.tpot_ms.clear();
  for (const Span* p : llm_proposes) {
    std::vector<double> ttft, tpot;
    for (const RequestRecord& r : records) {
      if (r.submit_ns < p->t0 || r.submit_ns > p->t1 ||
          r.status != serve::RequestStatus::Ok) {
        continue;
      }
      ttft.push_back(r.ttft_s * 1e3);
      if (r.tokens >= 2) {
        tpot.push_back((r.total_s - r.ttft_s) * 1e3 /
                       static_cast<double>(r.tokens - 1));
      }
    }
    if (!ttft.empty()) times.ttft_ms.push_back(median(ttft));
    if (!tpot.empty()) times.tpot_ms.push_back(median(tpot));
  }
  report.attempted = records.size();
  report.failed = failed_requests(records);
  add_end_to_end(report, setup.median_s, times, records.size(),
                 median(tok_rates), op_ms, median(eval_rates), kSetups);
  if (fallbacks != 0) {
    fail(report, "tune.fallbacks = " + std::to_string(fallbacks) +
                     ": the engine refused campaign requests");
  }
  if (!opt.state_dir.empty()) {
    const Shape shape = shape_for(opt.workload);
    const std::uint64_t ledger_key = sequence_digest(
        {static_cast<std::size_t>(opt.seed),
         static_cast<std::size_t>(shape.d_model),
         static_cast<std::size_t>(shape.n_layer), kCampaignBudget, kMaxIcl});
    check_ledger(report, opt.state_dir, ledger_key,
                 sequence_digest(first_sequence));
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "campaigns: %zu x %zu evaluations, sequence digest %016llx",
                n_traced + n_untraced, kCampaignBudget,
                static_cast<unsigned long long>(
                    sequence_digest(first_sequence)));
  report.notes.push_back(line);

  if (opt.trace) {
    LayerInput in;
    in.spans = spans;
    in.traced_wall = traced_wall;
    in.records = records;
    in.counters = delta;
    in.ops = op_ms.size();
    in.weight_bytes = setup.last().weight_bytes();
    in.steps = steps;
    in.rows = rows;
    in.pages_peak = pages_peak;
    in.overhead_share =
        overhead(wall_traced, static_cast<double>(n_traced), wall_untraced,
                 static_cast<double>(n_untraced));
    in.tune_self_ms = tune_self_ms;
    in.parse_fail_share =
        ratio(static_cast<double>(parse_failures),
              static_cast<double>(records.size()));
    in.fallbacks = fallbacks;
    report.per_layer = layer_metrics(in);
  }
  write_spans(report, recorder, opt);
  return report;
}

// ---- decode ----------------------------------------------------------------

constexpr std::size_t kDecodePrompt = 16;
constexpr std::size_t kDecodeOutput = 64;
constexpr std::size_t kDecodeChecks = 2;  // serial-reference sample size
constexpr Nanos kRateWindows = 5;

/// Alternating untraced/traced quarters of a window (traced = odd).
struct Blocks {
  Nanos start = 0;
  Nanos length = 0;
  bool tracing = false;
  std::size_t index(Nanos t) const {
    return static_cast<std::size_t>(std::max<Nanos>(0, t - start) / length);
  }
  bool traced(Nanos t) const { return tracing && index(t) % 2 == 1; }
};

Report run_decode(const RunOptions& opt, Nanos process_start) {
  Report report;
  const double ttft_limit = opt.params.get("ttft_limit_ms");
  const double tpot_limit = opt.params.get("tpot_limit_ms");
  SetupResult setup =
      timed_setup(opt.workload, process_start, kDecodePrompt, kDecodeOutput);
  note_setup(report, setup);
  Models& models = setup.last();
  const int vocab = models.backend().vocab_size();

  Recorder recorder;
  StackOptions stack_options;
  stack_options.cache.auto_insert_prompts = false;  // attached, never hit
  ServeStack stack(models.backend(), recorder, stack_options);
  util::Rng prompt_rng(opt.seed, 0xdec);
  std::vector<std::vector<int>> prompts;
  std::vector<std::vector<int>> outputs;
  std::deque<std::future<serve::ServeResult>> outstanding;
  std::deque<std::size_t> outstanding_index;

  const Counters before = Counters::read();
  const Nanos start = now_ns();
  const Nanos deadline = start + static_cast<Nanos>(opt.seconds * 1e9);
  Blocks blocks{start, std::max<Nanos>(1, (deadline - start) / 4), opt.trace};
  std::vector<Interval> traced_wall;
  std::vector<std::pair<Nanos, std::uint64_t>> toggles;  // (time, rows)
  bool tracing = false;
  // Token rate is the median over kRateWindows windows of the run, so a
  // host stall in one window does not move it.
  std::vector<std::pair<Nanos, std::uint64_t>> marks{{start, 0}};
  const Nanos window = std::max<Nanos>(1, (deadline - start) / kRateWindows);
  const auto maybe_mark = [&](Nanos t) {
    if (t >= marks.back().first + window) {
      marks.emplace_back(now_ns(), stack.decoder().tokens());
    }
  };
  const auto submit_next = [&] {
    const std::size_t i = prompts.size();
    prompts.push_back(unique_prompt(prompt_rng, i, kDecodePrompt, vocab));
    outputs.emplace_back();
    serve::Request request;
    request.prompt = prompts.back();
    request.options = fixed_length(kDecodeOutput);
    outstanding.push_back(stack.client().submit(std::move(request)));
    outstanding_index.push_back(i);
  };
  const auto retire_oldest = [&] {
    serve::ServeResult result = outstanding.front().get();
    outputs[outstanding_index.front()] = std::move(result.generation.tokens);
    outstanding.pop_front();
    outstanding_index.pop_front();
  };
  const auto maybe_toggle = [&](Nanos t) {
    const bool want = t < deadline && blocks.traced(t);
    if (want == tracing) return;
    tracing = want;
    recorder.set_enabled(want);
    toggles.emplace_back(now_ns(), stack.decoder().rows());
  };
  for (Nanos t = now_ns(); t < deadline; t = now_ns()) {
    maybe_toggle(t);
    maybe_mark(t);
    while (outstanding.size() < kBatch) submit_next();
    retire_oldest();
  }
  maybe_toggle(now_ns());
  while (!outstanding.empty()) retire_oldest();
  stack.shutdown();
  const Counters delta = Counters::read().since(before);
  const std::vector<RequestRecord> records = stack.client().records();
  std::vector<double> tok_rates;
  for (std::size_t w = 1; w < marks.size(); ++w) {
    tok_rates.push_back(
        static_cast<double>(marks[w].second - marks[w - 1].second) /
        seconds_between(marks[w - 1].first, marks[w].first));
  }
  if (tok_rates.empty()) tok_rates.push_back(0.0);

  // Serial reference: a seeded sample of requests re-generated with
  // lm::generate on the same backend must match token for token.
  util::Rng pick(opt.seed, 0xc4ec);
  for (std::size_t k = 0; k < kDecodeChecks && !prompts.empty(); ++k) {
    const auto i = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(prompts.size()) - 1));
    const lm::Generation serial =
        lm::generate(models.model(), prompts[i], fixed_length(kDecodeOutput));
    if (serial.tokens != outputs[i]) {
      fail(report, "decode request " + std::to_string(i) +
                       " differs from serial lm::generate");
    }
  }

  const RequestTimes times = request_times(
      records, ttft_limit, tpot_limit);
  std::vector<double> op_ms;
  for (const RequestRecord& r : records) {
    if (r.status == serve::RequestStatus::Ok) op_ms.push_back(r.total_s * 1e3);
  }
  report.attempted = records.size();
  report.failed = failed_requests(records);
  // Every request runs to kDecodeOutput tokens, so completed requests per
  // second is the token rate over kDecodeOutput.
  const double tok_s = median(tok_rates);
  add_end_to_end(report, setup.median_s, times, records.size(), tok_s, op_ms,
                 tok_s / static_cast<double>(kDecodeOutput), kSetups);

  if (opt.trace) {
    // Token rate in traced vs untraced blocks, from the decoder's row
    // count at each toggle.
    double traced_rows = 0, traced_s = 0, plain_rows = 0, plain_s = 0;
    std::uint64_t rows_before = 0;
    Nanos t_before = start;
    bool on = false;
    for (const auto& [t, rows] : toggles) {
      const double r = static_cast<double>(rows - rows_before);
      const double s = seconds_between(t_before, t);
      if (on) {
        traced_rows += r;
        traced_s += s;
        traced_wall.push_back({t_before, t});
      } else {
        plain_rows += r;
        plain_s += s;
      }
      on = !on;
      rows_before = rows;
      t_before = t;
    }
    LayerInput in;
    in.spans = recorder.snapshot();
    in.traced_wall = traced_wall;
    in.records = records;
    in.counters = delta;
    in.ops = records.size();
    in.weight_bytes = models.weight_bytes();
    read_decoder(in, stack.decoder());
    in.overhead_share = overhead(traced_s, traced_rows, plain_s, plain_rows);
    report.per_layer = layer_metrics(in);
  }
  write_spans(report, recorder, opt);
  return report;
}

// ---- ingest ----------------------------------------------------------------

constexpr std::size_t kIngestPrompt = 192;
// 16 output tokens, not 4: a request whose decode overlaps another's
// chunked prefill loses one 32-token chunk tick per overlapped gap, and with
// only 3 gaps the TPOT tail jumped between 1, 2 and 3 lost ticks from run
// to run.  Averaging 15 gaps makes it move in small steps.
constexpr std::size_t kIngestOutput = 16;
constexpr std::size_t kIngestChecks = 3;
constexpr std::size_t kIngestCachedPrompts = 4;  // prefix-cache byte cap
constexpr std::size_t kIngestBudgetBytes = std::size_t{512} << 20;

/// Reads futures in submission order on its own thread so the generator
/// never blocks on a result.  Joins in the destructor.
class Collector {
 public:
  explicit Collector(std::vector<serve::ServeResult>& results)
      : results_(&results), thread_([this] { run(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(std::size_t index, std::future<serve::ServeResult> future) {
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back(index, std::move(future));
    }
    cv_.notify_one();
  }
  void finish() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    for (;;) {
      std::pair<std::size_t, std::future<serve::ServeResult>> item;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      (*results_)[item.first] = item.second.get();
    }
  }

  std::vector<serve::ServeResult>* results_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::future<serve::ServeResult>>>
      queue_;  // guarded by mutex_
  bool closed_ = false;  // guarded by mutex_
  std::thread thread_;
};

Report run_ingest(const RunOptions& opt, Nanos process_start) {
  Report report;
  const double rate_hz = opt.params.get("rate_hz");
  const double ttft_limit = opt.params.get("ttft_limit_ms");
  const double late_bound_ms = opt.params.get("late_bound_ms");
  SetupResult setup =
      timed_setup(opt.workload, process_start, kIngestPrompt, kIngestOutput);
  note_setup(report, setup);
  Models& models = setup.last();
  const int vocab = models.backend().vocab_size();

  const auto count = static_cast<std::size_t>(
      std::llround(std::max(1.0, rate_hz * opt.seconds)));
  // The arrival pattern comes from BENCHMARK.json, not --seed: which
  // requests collide decides the latency tails, and a new pattern per seed
  // moved the TTFT and TPOT tails by up to 4x between runs of the same code.
  // --seed varies the prompts.
  const std::vector<double> due = poisson_schedule(
      static_cast<std::uint64_t>(opt.params.get("arrival_seed")), count,
      opt.seconds);
  util::Rng prompt_rng(opt.seed, 0x1a6e);
  std::vector<std::vector<int>> prompts;
  for (std::size_t i = 0; i < count; ++i) {
    prompts.push_back(unique_prompt(prompt_rng, i, kIngestPrompt, vocab));
  }

  guard::Budget budget(kIngestBudgetBytes);
  Recorder recorder;
  StackOptions stack_options;
  const lm::TransformerConfig& cfg = models.backend().config();
  stack_options.cache.byte_budget =
      kIngestCachedPrompts * kIngestPrompt * 2 *
      static_cast<std::size_t>(cfg.n_layer) *
      static_cast<std::size_t>(cfg.d_model) * sizeof(float);
  stack_options.budget = &budget;
  stack_options.queue_capacity = count;
  ServeStack stack(models.backend(), recorder, stack_options);

  std::vector<serve::ServeResult> results(count);
  std::vector<Nanos> submitted(count);
  const Counters before = Counters::read();
  const Nanos start = now_ns();
  Blocks blocks{start,
                std::max<Nanos>(1, static_cast<Nanos>(opt.seconds * 1e9) / 4),
                opt.trace};
  const auto sleep_to = [](Nanos t) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
  };
  // Per-call spans follow the clock, not submissions: a block boundary
  // flips recording even while no request is due.
  Nanos next_boundary = start + blocks.length;
  const auto toggle_until = [&](Nanos t) {
    for (; opt.trace && next_boundary <= t; next_boundary += blocks.length) {
      sleep_to(next_boundary);
      recorder.set_enabled(blocks.traced(next_boundary));
    }
  };
  {
    Collector collector(results);
    for (std::size_t i = 0; i < count; ++i) {
      const Nanos due_ns = start + static_cast<Nanos>(due[i] * 1e9);
      toggle_until(due_ns);
      sleep_to(due_ns);
      serve::Request request;
      request.prompt = prompts[i];
      request.options = fixed_length(kIngestOutput);
      submitted[i] = now_ns();
      collector.push(i, stack.client().submit(std::move(request)));
    }
    toggle_until(start + 4 * blocks.length);
    collector.finish();
  }
  recorder.set_enabled(false);
  stack.shutdown();
  const Counters delta = Counters::read().since(before);
  const std::vector<RequestRecord> records = stack.client().records();

  // Open-loop accounting from due times.
  std::vector<OpenLoopSample> samples(count);
  Nanos last_done = start;
  for (std::size_t i = 0; i < count; ++i) {
    samples[i].due_s = due[i];
    samples[i].submit_s = seconds_between(start, submitted[i]);
    samples[i].ttft_s = results[i].ttft_s;
    samples[i].total_s = results[i].total_s;
    samples[i].ok = results[i].status == serve::RequestStatus::Ok;
    last_done = std::max(
        last_done,
        submitted[i] + static_cast<Nanos>(results[i].total_s * 1e9));
  }
  const OpenLoopTimes open = account_open_loop(samples, ttft_limit * 1e-3);
  const double late_ms_max = open.late_max_s * 1e3;
  if (late_ms_max > late_bound_ms) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "invalid run: generator fell %.2f ms behind its schedule "
                  "(bound %.2f ms)",
                  late_ms_max, late_bound_ms);
    fail(report, buf);
  }

  util::Rng pick(opt.seed, 0xc4ec);
  for (std::size_t k = 0; k < kIngestChecks; ++k) {
    const auto i = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    const lm::Generation serial =
        lm::generate(models.model(), prompts[i], fixed_length(kIngestOutput));
    if (serial.tokens != results[i].generation.tokens) {
      fail(report, "ingest request " + std::to_string(i) +
                       " differs from serial lm::generate");
    }
  }

  // TTFT and goodput count from due time (the TTFT limit only: TPOT has no
  // limit on ingest); TPOT and token counts come from the requests.
  RequestTimes times = request_times(records, ttft_limit,
                                     std::numeric_limits<double>::infinity());
  times.ttft_ms.clear();
  for (const double s : open.ttft_from_due_s) times.ttft_ms.push_back(s * 1e3);
  times.met = open.met_ttft;
  std::vector<double> op_ms;
  for (const double s : open.done_from_due_s) op_ms.push_back(s * 1e3);
  const double wall_s = seconds_between(start, last_done);
  report.attempted = count;
  report.failed = failed_requests(records);
  add_end_to_end(report, setup.median_s, times, count,
                 ratio(static_cast<double>(times.tokens), wall_s), op_ms,
                 ratio(static_cast<double>(op_ms.size()), wall_s), kSetups);
  char line[160];
  std::snprintf(line, sizeof(line),
                "open loop: %zu requests at %.2f/s, generator late max %.3f ms",
                count, rate_hz, late_ms_max);
  report.notes.push_back(line);

  if (opt.trace) {
    std::vector<Interval> busy, traced_blocks;
    // Median request time in traced vs untraced quarters: a mean would
    // compare how many arrivals happened to collide in each quarter.
    std::vector<double> traced_s, plain_s;
    for (std::size_t i = 0; i < count; ++i) {
      const Nanos due_ns = start + static_cast<Nanos>(due[i] * 1e9);
      busy.push_back({due_ns, submitted[i] + static_cast<Nanos>(
                                                 results[i].total_s * 1e9)});
      if (blocks.traced(due_ns)) {
        traced_s.push_back(results[i].total_s);
      } else {
        plain_s.push_back(results[i].total_s);
      }
    }
    for (std::size_t b = 1; b < 4; b += 2) {
      traced_blocks.push_back(
          {start + static_cast<Nanos>(b) * blocks.length,
           start + static_cast<Nanos>(b + 1) * blocks.length});
    }
    LayerInput in;
    in.spans = recorder.snapshot();
    in.traced_wall = intersect(busy, traced_blocks);
    in.records = records;
    in.counters = delta;
    in.ops = count;
    in.weight_bytes = models.weight_bytes();
    read_decoder(in, stack.decoder());
    in.overhead_share =
        traced_s.empty() || plain_s.empty()
            ? 0.0
            : overhead(median(traced_s), 1.0, median(plain_s), 1.0);
    in.late_ms_max = late_ms_max;
    report.per_layer = layer_metrics(in);
  }
  write_spans(report, recorder, opt);
  return report;
}

}  // namespace

Report run_workload(const RunOptions& options, Nanos process_start) {
  if (options.workload == "campaign") {
    return run_campaign(options, process_start);
  }
  if (options.workload == "decode") return run_decode(options, process_start);
  if (options.workload == "ingest") return run_ingest(options, process_start);
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (campaign, decode, ingest)");
}

}  // namespace perfbench
