#include "core/sweep.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "haystack/decoding_set.hpp"
#include "lm/generate.hpp"
#include "prompt/parser.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lmpeel::core {

namespace {

/// Everything one (size, curation, icl, set) cell needs to run: the query
/// panel plus a per-query in-context example list.
struct Cell {
  perf::SizeClass size;
  Curation curation;
  std::size_t icl_count;
  std::size_t set_id;
  std::vector<std::size_t> query_indices;
  /// per_query_icl[q] are the example rows for query q (for the Random
  /// curation every query shares the same list).
  std::vector<std::vector<std::size_t>> per_query_icl;
};

std::uint64_t cell_stream(const SweepSettings& settings, perf::SizeClass size,
                          Curation curation, std::size_t icl,
                          std::size_t set_id) {
  std::uint64_t h = util::hash_combine(settings.seed,
                                       static_cast<std::uint64_t>(size));
  h = util::hash_combine(h, static_cast<std::uint64_t>(curation));
  h = util::hash_combine(h, icl);
  return util::hash_combine(h, set_id);
}

/// All dataset rows ordered by edit distance from `centre` (excluding the
/// centre itself); ties broken by index for determinism.
std::vector<std::size_t> neighbor_order(const perf::Dataset& data,
                                        std::size_t centre) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  const perf::Syr2kConfig& centre_cfg = data[centre].config;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const int da = perf::ConfigSpace::edit_distance(
                         data[a].config, centre_cfg);
                     const int db = perf::ConfigSpace::edit_distance(
                         data[b].config, centre_cfg);
                     if (da != db) return da < db;
                     return a < b;
                   });
  // order[0] is the centre (distance zero) — drop it.
  order.erase(order.begin());
  return order;
}

}  // namespace

SweepResult run_llm_quality_sweep(Pipeline& pipeline,
                                  const SweepSettings& settings,
                                  SweepObserver* observer,
                                  lm::LanguageModel* model_override) {
  lm::LanguageModel& model =
      model_override != nullptr ? *model_override : pipeline.model();
  LMPEEL_CHECK(!settings.icl_counts.empty());
  LMPEEL_CHECK(settings.disjoint_sets >= 1 && settings.seeds >= 1);
  LMPEEL_CHECK(settings.queries_per_setting >= 1);

  const tok::Tokenizer& tokenizer = pipeline.tokenizer();
  const std::size_t max_icl =
      *std::max_element(settings.icl_counts.begin(),
                        settings.icl_counts.end());

  // ---- plan all cells -----------------------------------------------------
  std::vector<Cell> cells;
  for (const perf::SizeClass size : settings.sizes) {
    const perf::Dataset& data = pipeline.dataset(size);

    // Fixed per-size held-out query panel used by both curations, so the
    // truth spread (and hence the R2 denominator) is comparable.
    util::Rng panel_rng(settings.seed, util::hash_combine(
                                           0x9e1, static_cast<int>(size)));
    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    panel_rng.shuffle(order.begin(), order.end());
    const std::vector<std::size_t> query_panel(
        order.begin(), order.begin() + settings.queries_per_setting);
    const std::vector<std::size_t> pool(
        order.begin() + settings.queries_per_setting, order.end());

    for (const Curation curation : settings.curations) {
      for (const std::size_t icl : settings.icl_counts) {
        for (std::size_t set_id = 0; set_id < settings.disjoint_sets;
             ++set_id) {
          Cell cell{size, curation, icl, set_id, {}, {}};
          if (curation == Curation::Random) {
            // Shared query panel; shuffle the pool once per (size, icl)
            // and slice pairwise-disjoint example sets.
            LMPEEL_CHECK_MSG(settings.disjoint_sets * icl <= pool.size(),
                             "not enough data for disjoint in-context sets");
            cell.query_indices = query_panel;
            std::vector<std::size_t> shuffled = pool;
            util::Rng icl_rng(cell_stream(settings, size, curation, icl, 0));
            icl_rng.shuffle(shuffled.begin(), shuffled.end());
            const std::vector<std::size_t> shared(
                shuffled.begin() + set_id * icl,
                shuffled.begin() + (set_id + 1) * icl);
            cell.per_query_icl.assign(query_panel.size(), shared);
          } else {
            // Minimal-edit-distance curation (§III-B): every query is
            // "as well-defined by the ICL as possible" — its examples are
            // the nearest configurations by edit distance.  Disjoint set k
            // uses the k-th ring of each query's neighbourhood.
            cell.query_indices = query_panel;
            cell.per_query_icl.reserve(query_panel.size());
            for (const std::size_t q : query_panel) {
              const auto neighbors = neighbor_order(data, q);
              LMPEEL_CHECK(settings.disjoint_sets * max_icl <=
                           neighbors.size());
              cell.per_query_icl.emplace_back(
                  neighbors.begin() + set_id * icl,
                  neighbors.begin() + (set_id + 1) * icl);
            }
          }
          cells.push_back(std::move(cell));
        }
      }
    }
  }

  // ---- run ---------------------------------------------------------------
  SweepResult result;
  result.settings.resize(cells.size() * settings.seeds);
  std::mutex observer_mutex;
  // All generation goes through one serve::Engine: its scheduler thread owns
  // the shared model (which carries per-generation seed state), while prompt
  // encoding and bookkeeping fan out across the pool.  The replay decoder
  // reseeds the model per request, so results are bit-identical to the old
  // mutex-serialised lm::generate calls regardless of interleaving.
  serve::GenericBatchDecoder decoder(model, /*slots=*/8);
  serve::EngineConfig engine_config;
  engine_config.max_batch = 8;
  // Whole-prompt admission: a replay prefill is one next_logits call, so
  // chunking it would only add scheduler ticks.
  engine_config.prefill_chunk_tokens = 0;
  engine_config.queue_capacity =
      std::max<std::size_t>(64, util::global_pool().size() * 2);
  serve::Engine engine(decoder, engine_config);

  util::parallel_for(0, cells.size(), [&](std::size_t ci) {
    const Cell& cell = cells[ci];
    const perf::Dataset& data = pipeline.dataset(cell.size);
    const prompt::PromptBuilder builder = pipeline.builder(cell.size);
    const auto number_format =
        pipeline.config().prompt_options.number_format;

    // Prompts are identical across seeds; encode once per query.
    std::vector<std::vector<int>> prompts;
    std::vector<std::vector<std::string>> icl_texts;
    prompts.reserve(cell.query_indices.size());
    icl_texts.reserve(cell.query_indices.size());
    for (std::size_t q = 0; q < cell.query_indices.size(); ++q) {
      std::vector<perf::Sample> examples;
      std::vector<std::string> value_texts;
      examples.reserve(cell.per_query_icl[q].size());
      for (const std::size_t idx : cell.per_query_icl[q]) {
        examples.push_back(data[idx]);
        value_texts.push_back(
            prompt::render_value(data[idx].runtime, number_format));
      }
      prompts.push_back(builder.encode(tokenizer, examples,
                                       data[cell.query_indices[q]].config));
      icl_texts.push_back(std::move(value_texts));
    }

    for (std::size_t seed_id = 0; seed_id < settings.seeds; ++seed_id) {
      SettingResult& setting =
          result.settings[ci * settings.seeds + seed_id];
      setting.key = SettingKey{cell.size, cell.curation, cell.icl_count,
                               cell.set_id, seed_id};
      setting.queries.reserve(cell.query_indices.size());

      for (std::size_t q = 0; q < cell.query_indices.size(); ++q) {
        lm::GenerateOptions gen;
        gen.sampler = settings.sampler;
        gen.stop_token = tokenizer.newline_token();
        gen.max_tokens = 64;
        gen.seed = util::hash_combine(settings.seed, 0x5eedULL + seed_id);
        gen.record_trace = true;  // Table II counts + the observer

        // One outstanding request per pool worker, so the bounded queue can
        // never fill up (capacity >= pool size) and rejection is impossible
        // here by construction.
        serve::ServeResult served =
            serve::generate_sync(engine, prompts[q], gen);
        LMPEEL_CHECK_MSG(served.status == serve::RequestStatus::Ok,
                         "sweep generation rejected by serve engine");
        lm::Generation generation = std::move(served.generation);
        const lm::GenerationTrace& trace = lm::recorded_trace(generation);
        const std::string response = tokenizer.decode(generation.tokens);
        const auto parsed = prompt::parse_response(response);

        QueryRecord record;
        record.truth = data[cell.query_indices[q]].runtime;
        record.predicted = parsed.value;
        record.deviated = parsed.deviated;
        record.verbatim_copy =
            parsed.value.has_value() &&
            prompt::is_verbatim_copy(parsed.value_text, icl_texts[q]);
        const auto span = haystack::find_value_span(trace, tokenizer);
        if (span.has_value()) {
          for (std::size_t s = span->first; s < span->second; ++s) {
            record.candidate_counts.push_back(trace.step(s).candidates.size());
          }
          record.permutations = trace.permutations(span->first, span->second);
        }
        if (observer != nullptr) {
          const std::lock_guard lock(observer_mutex);
          observer->on_query(setting.key, record, trace, icl_texts[q]);
        }
        setting.queries.push_back(std::move(record));
      }
      setting.finalize();
    }
  }, /*grain=*/1);

  return result;
}

}  // namespace lmpeel::core
