// lmpeel::recover — durable state and replica resurrection (DESIGN.md §16).
//
// Covers the recovery layer bottom-up:
//   * wal: append/replay round trip, and the corruption matrix — torn
//     tail, bit-flipped CRC, duplicate sequence number, oversized length
//     field, missing/empty file — each returning the longest valid record
//     prefix and quarantining damage to `<path>.corrupt`;
//   * shard: the request journal's zero-lost / zero-duplicated accounting
//     across a kill→revive cycle, drain's successor re-picked at migration
//     time when the first choice dies, and the acceptance drill — a
//     3-replica LLAMBO campaign bit-identical to the fault-free run under
//     two kill→revive cycles;
//   * tune: a campaign killed mid-run resumes from its write-ahead journal
//     bit-identically to an uninterrupted run.
#include "recover/wal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cache/prefix_cache.hpp"
#include "core/pipeline.hpp"
#include "guard/budget.hpp"
#include "lm/transformer.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/decoder.hpp"
#include "serve/engine.hpp"
#include "shard/router.hpp"
#include "tune/campaign.hpp"
#include "tune/llambo_tuner.hpp"
#include "tune/random_search_tuner.hpp"
#include "util/crc32.hpp"

namespace lmpeel::recover {
namespace {

// ---- shared fixtures ------------------------------------------------------

/// Unique per-test scratch directory under gtest's temp root, removed on
/// scope exit so corruption artefacts never leak between tests.
struct ScopedDir {
  explicit ScopedDir(const std::string& name)
      : path(std::filesystem::path(::testing::TempDir()) / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& leaf) const {
    return (path / leaf).string();
  }
  std::filesystem::path path;
};

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_raw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// ---- wal: append/replay round trip ---------------------------------------

TEST(Wal, AppendReplayRoundTrip) {
  ScopedDir dir("wal_roundtrip");
  const std::string path = dir.file("a.wal");
  const std::vector<std::string> payloads{
      "eval 0 42 0x1.8p+0", "", std::string("bin\0ary", 7), "ack deadbeef 0"};
  {
    Wal wal(path, {/*durable=*/false});
    EXPECT_TRUE(wal.recovered().records.empty());
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      EXPECT_EQ(wal.append(payloads[i]), i + 1);  // seqs start at 1
    }
    EXPECT_EQ(wal.appended(), payloads.size());
  }
  const WalReplay replayed = Wal::replay(path);
  EXPECT_FALSE(replayed.quarantined);
  ASSERT_EQ(replayed.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(replayed.records[i].seq, i + 1);
    EXPECT_EQ(replayed.records[i].payload, payloads[i]);
  }
  // Reopening continues the sequence — recovered records are the inbox,
  // new appends extend it.
  Wal reopened(path, {/*durable=*/false});
  EXPECT_EQ(reopened.recovered().records.size(), payloads.size());
  EXPECT_EQ(reopened.append("tail"), payloads.size() + 1);
}

// ---- wal: the corruption matrix ------------------------------------------

/// Local frame encoder mirroring the on-disk layout
/// [u32 payload_len][u32 crc32(seq_le || payload)][u64 seq][payload] so the
/// matrix can hand-craft exactly-damaged files.  Kept independent of the
/// implementation on purpose: if wal.cpp's framing drifts, this test
/// breaks loudly instead of following it.
std::string frame(std::uint64_t seq, std::string_view payload,
                  std::uint32_t crc_xor = 0) {
  std::string sealed;
  char b8[8];
  std::memcpy(b8, &seq, 8);
  sealed.append(b8, 8);
  sealed.append(payload);
  const std::uint32_t crc = util::crc32(sealed) ^ crc_xor;
  std::string out;
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  char b4[4];
  std::memcpy(b4, &len, 4);
  out.append(b4, 4);
  std::memcpy(b4, &crc, 4);
  out.append(b4, 4);
  out.append(b8, 8);
  out.append(payload);
  return out;
}

TEST(Wal, TornTailIsToleratedAndHealed) {
  ScopedDir dir("wal_torn");
  const std::string path = dir.file("torn.wal");
  // Three whole records plus the first 7 bytes of a fourth — the shape a
  // crash mid-append leaves behind.
  write_raw(path, frame(1, "alpha") + frame(2, "beta") + frame(3, "gamma") +
                      frame(4, "cut-off-record").substr(0, 7));
  const WalReplay replayed = Wal::replay(path);
  ASSERT_EQ(replayed.records.size(), 3u);
  EXPECT_EQ(replayed.records[2].payload, "gamma");
  EXPECT_TRUE(replayed.quarantined);
  EXPECT_TRUE(std::filesystem::exists(replayed.corrupt_path));
  // Healed: the rewritten file is the valid prefix, clean on a second
  // pass, and a reopened Wal continues from seq 3.
  const WalReplay again = Wal::replay(path);
  EXPECT_FALSE(again.quarantined);
  ASSERT_EQ(again.records.size(), 3u);
  Wal continued(path, {/*durable=*/false});
  EXPECT_EQ(continued.append("delta"), 4u);
}

TEST(Wal, BitFlippedCrcQuarantinesTheSuffix) {
  ScopedDir dir("wal_crc");
  const std::string path = dir.file("crc.wal");
  const std::string original = frame(1, "one") + frame(2, "two") +
                               frame(3, "three", /*crc_xor=*/0x80) +
                               frame(4, "four");
  write_raw(path, original);
  const WalReplay replayed = Wal::replay(path);
  // Longest valid prefix: everything before the damaged frame.  Record 4
  // is intact but unreachable — resurrecting records past a corrupt gap
  // would reorder history, so it stays quarantined with the evidence.
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_EQ(replayed.records[1].payload, "two");
  EXPECT_TRUE(replayed.quarantined);
  EXPECT_EQ(replayed.corrupt_path, path + ".corrupt");
  EXPECT_EQ(read_raw(replayed.corrupt_path), original);  // evidence intact
  EXPECT_FALSE(Wal::replay(path).quarantined);           // healed
}

TEST(Wal, DuplicateSequenceNumberIsCorruptionNotReplay) {
  ScopedDir dir("wal_dup");
  const std::string path = dir.file("dup.wal");
  // A duplicated frame (torn rewrite, double append from foreign tooling)
  // must not be replayed twice — replaying acked work would redo it.
  write_raw(path,
            frame(1, "a") + frame(2, "b") + frame(2, "b") + frame(3, "c"));
  const WalReplay replayed = Wal::replay(path);
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_TRUE(replayed.quarantined);

  // Same for a regressing sequence number.
  const std::string regress_path = dir.file("regress.wal");
  write_raw(regress_path, frame(5, "x") + frame(4, "y"));
  const WalReplay regressed = Wal::replay(regress_path);
  ASSERT_EQ(regressed.records.size(), 1u);
  EXPECT_TRUE(regressed.quarantined);
}

TEST(Wal, OversizedLengthFieldStopsTheScan) {
  ScopedDir dir("wal_len");
  const std::string path = dir.file("len.wal");
  // A length field past the 1 MiB record bound means the scanner is
  // reading garbage — it must stop, not allocate it.
  std::string bogus = frame(1, "ok");
  const std::uint32_t huge = 3u << 20;
  std::string tail(16, '\0');
  std::memcpy(tail.data(), &huge, 4);
  write_raw(path, bogus + tail);
  const WalReplay replayed = Wal::replay(path);
  ASSERT_EQ(replayed.records.size(), 1u);
  EXPECT_EQ(replayed.records[0].payload, "ok");
  EXPECT_TRUE(replayed.quarantined);
}

TEST(Wal, MissingAndEmptyFilesReplayToNothing) {
  ScopedDir dir("wal_empty");
  const WalReplay missing = Wal::replay(dir.file("never-written.wal"));
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.quarantined);

  const std::string empty_path = dir.file("empty.wal");
  write_raw(empty_path, "");
  const WalReplay empty = Wal::replay(empty_path);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.quarantined);
}

// ---- shard: revive journal accounting and drain re-pick ------------------

lm::TransformerConfig serve_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = 60;
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  return cfg;
}

/// One resurrectable replica: identical (config, seed) everywhere, plus a
/// restart hook that rebuilds the engine over the same decoder.  Killed
/// engines are retired, not destroyed — the router may still read their
/// accepting() flag.
struct Stack {
  Stack()
      : model(serve_config(), /*seed=*/17),
        cache(model),
        decoder(model, /*slots=*/2) {
    decoder.set_prefix_cache(&cache);
    config.max_batch = 2;
    config.queue_capacity = 32;
    engine = std::make_unique<serve::Engine>(decoder, config);
  }

  shard::Replica replica() {
    shard::Replica descriptor;
    descriptor.client = engine.get();
    descriptor.cache = &cache;
    descriptor.restart = [this]() -> serve::Client* {
      retired.push_back(std::move(engine));
      engine = std::make_unique<serve::Engine>(decoder, config);
      return engine.get();
    };
    return descriptor;
  }

  lm::TransformerLm model;
  cache::PrefixCache cache;
  serve::TransformerBatchDecoder decoder;
  serve::EngineConfig config;
  std::vector<std::unique_ptr<serve::Engine>> retired;
  std::unique_ptr<serve::Engine> engine;
};

serve::Request fleet_request(std::size_t salt) {
  serve::Request request;
  for (std::size_t t = 0; t < 6; ++t) {
    request.prompt.push_back(static_cast<int>(5 + t * 3));
  }
  for (std::size_t t = 0; t < 6; ++t) {
    request.prompt.push_back(static_cast<int>(5 + (salt * 7 + t) % 50));
  }
  request.shared_prefix_tokens = 6;
  request.options.sampler.temperature = 0.0;
  request.options.max_tokens = 4;
  request.options.seed = salt;
  return request;
}

struct JournalEntry {
  std::size_t subs = 0;
  std::size_t acks = 0;
};

std::map<std::uint64_t, JournalEntry> journal_accounting(
    const std::string& path) {
  std::map<std::uint64_t, JournalEntry> by_trace;
  for (const WalRecord& record : Wal::scan(path).records) {
    char kind[8] = {0};
    unsigned long long trace = 0;
    int status = 0;
    if (std::sscanf(record.payload.c_str(), "%7s %llx %d", kind, &trace,
                    &status) != 3) {
      continue;
    }
    if (std::string_view(kind) == "sub") ++by_trace[trace].subs;
    if (std::string_view(kind) == "ack") ++by_trace[trace].acks;
  }
  return by_trace;
}

TEST(RouterRevive, JournalShowsZeroLostZeroDuplicatedAcrossKillRevive) {
  ScopedDir dir("revive_journal");
  Wal journal(dir.file("requests.wal"), {/*durable=*/false});

  std::vector<std::unique_ptr<Stack>> stacks;
  for (std::size_t i = 0; i < 3; ++i) stacks.push_back(std::make_unique<Stack>());
  std::vector<shard::Replica> replicas;
  for (auto& stack : stacks) replicas.push_back(stack->replica());
  shard::RouterConfig config;
  config.journal = &journal;
  shard::Router router(std::move(replicas), config);

  const auto probe_request = fleet_request(0);
  const std::size_t owner =
      router
          .preference_order(std::span<const int>(
              probe_request.prompt.data(), probe_request.shared_prefix_tokens))
          .front();

  std::vector<std::future<serve::ServeResult>> futures;
  for (std::size_t r = 0; r < 10; ++r) {
    futures.push_back(router.submit(fleet_request(r)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  stacks[owner]->engine->kill();  // mid-stream: some acks come via failover
  for (auto& future : futures) {
    const auto result = future.get();
    EXPECT_NE(result.status, serve::RequestStatus::EngineError);
  }

  ASSERT_EQ(router.probe(owner), shard::Health::Dead);
  const shard::ReviveReport report = router.revive(owner);
  ASSERT_TRUE(report.ok);
  EXPECT_GT(report.wal_replayed, 0u);  // the journal survived the engine
  EXPECT_GE(report.probes, 1u);
  EXPECT_GE(report.ring_generation, 1u);
  EXPECT_EQ(router.probe(owner), shard::Health::Healthy);

  // The resurrected replica serves again.
  for (std::size_t r = 10; r < 14; ++r) {
    const auto result = router.submit(fleet_request(r)).get();
    EXPECT_EQ(result.status, serve::RequestStatus::Ok);
  }

  // Zero lost, zero duplicated: every journaled acceptance has exactly
  // one terminal ack, across the kill, the failovers and the revive.
  journal.sync();
  const auto accounting = journal_accounting(journal.path());
  EXPECT_EQ(accounting.size(), 14u);
  for (const auto& [trace, entry] : accounting) {
    EXPECT_EQ(entry.subs, 1u) << "trace " << std::hex << trace;
    EXPECT_EQ(entry.acks, 1u) << "trace " << std::hex << trace;
  }
}

TEST(RouterDrain, SuccessorRepickedAtMigrationWhenFirstChoiceDies) {
  std::vector<std::unique_ptr<Stack>> stacks;
  for (std::size_t i = 0; i < 3; ++i) stacks.push_back(std::make_unique<Stack>());
  std::vector<shard::Replica> replicas;
  for (auto& stack : stacks) replicas.push_back(stack->replica());
  shard::Router router(std::move(replicas), {});

  const auto probe_request = fleet_request(0);
  const std::span<const int> prefix(probe_request.prompt.data(),
                                    probe_request.shared_prefix_tokens);
  const auto order = router.preference_order(prefix);
  const std::size_t owner = order[0];
  const std::size_t first_choice = order[1];
  const std::size_t survivor = order[2];

  for (std::size_t r = 0; r < 3; ++r) {
    const auto result = router.submit(fleet_request(r)).get();
    ASSERT_EQ(result.status, serve::RequestStatus::Ok);
  }
  ASSERT_GT(stacks[owner]->cache.snapshot_prefixes().size(), 0u);

  // The replica that *would* be the successor dies before the drain: the
  // migration target must be re-picked among the living at migration
  // time, not latched when the drain was planned.
  stacks[first_choice]->engine->kill();
  ASSERT_EQ(router.probe(first_choice), shard::Health::Dead);
  const std::size_t migrated = router.drain(owner);
  EXPECT_GE(migrated, 1u);

  EXPECT_EQ(stacks[first_choice]->cache.node_count(), 0u);
  const auto landed = stacks[survivor]->cache.snapshot_prefixes();
  ASSERT_GT(landed.size(), 0u);
  const std::vector<int> want(prefix.begin(), prefix.end());
  EXPECT_NE(std::find(landed.begin(), landed.end(), want), landed.end())
      << "campaign prefix did not land on the surviving successor";
  EXPECT_TRUE(router.accepting());
}

// ---- tune: campaign WAL kill→resume bit-identity -------------------------

core::Pipeline& pipeline() {
  static core::Pipeline p;
  return p;
}

void expect_same_campaign(const tune::CampaignResult& expected,
                          const tune::CampaignResult& actual) {
  ASSERT_EQ(expected.evaluated.size(), actual.evaluated.size());
  for (std::size_t i = 0; i < expected.evaluated.size(); ++i) {
    EXPECT_EQ(expected.evaluated[i].config_index,
              actual.evaluated[i].config_index)
        << "evaluation " << i;
    EXPECT_EQ(expected.evaluated[i].runtime, actual.evaluated[i].runtime)
        << "evaluation " << i;
  }
  EXPECT_EQ(expected.best_so_far, actual.best_so_far);
}

TEST(CampaignWal, KillMidCampaignResumesBitIdentical) {
  ScopedDir dir("campaign_wal");
  const std::string wal_path = dir.file("campaign.wal");

  tune::CampaignOptions options;
  options.budget = 8;
  options.seed = 11;

  // The uninterrupted reference run — no durability at all.
  tune::RandomSearchTuner reference_tuner;
  const auto expected = tune::run_campaign(
      reference_tuner, pipeline().perf_model(), perf::SizeClass::SM, options);

  // First leg: journal on, killed after 4 of 8 evaluations (a smaller
  // budget stands in for the kill — the journal state is identical).
  tune::CampaignOptions first = options;
  first.budget = 4;
  first.checkpoint.wal_path = wal_path;
  first.checkpoint.resume = false;  // fresh journal for a fresh run
  tune::RandomSearchTuner first_tuner;
  tune::run_campaign(first_tuner, pipeline().perf_model(), perf::SizeClass::SM,
                     first);
  ASSERT_EQ(Wal::scan(wal_path).records.size(), 4u);

  // Second leg: a fresh process (fresh tuner, fresh RNG streams) resumes
  // from the journal alone — no checkpoint file — and must land exactly
  // where the uninterrupted run did.
  const std::uint64_t resumed_before = counter_value("tune.wal_resumed_evals");
  tune::CampaignOptions second = options;
  second.checkpoint.wal_path = wal_path;
  second.checkpoint.resume = true;
  tune::RandomSearchTuner second_tuner;
  const auto resumed = tune::run_campaign(
      second_tuner, pipeline().perf_model(), perf::SizeClass::SM, second);
  EXPECT_EQ(counter_value("tune.wal_resumed_evals"), resumed_before + 4);
  expect_same_campaign(expected, resumed);
}

// ---- the acceptance drill: LLAMBO under two kill→revive cycles -----------

lm::TransformerConfig campaign_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = pipeline().tokenizer().vocab_size();
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 1;
  cfg.max_seq = 2048;
  return cfg;
}

/// Campaign-scale resurrectable replica (prompts need the big max_seq).
struct CampaignStack {
  CampaignStack()
      : model(campaign_config(), /*seed=*/17),
        cache(model),
        decoder(model, /*slots=*/4) {
    decoder.set_prefix_cache(&cache);
    config.max_batch = 4;
    config.queue_capacity = 32;
    engine = std::make_unique<serve::Engine>(decoder, config);
  }

  shard::Replica replica() {
    shard::Replica descriptor;
    descriptor.client = engine.get();
    descriptor.cache = &cache;
    descriptor.restart = [this]() -> serve::Client* {
      retired.push_back(std::move(engine));
      engine = std::make_unique<serve::Engine>(decoder, config);
      return engine.get();
    };
    return descriptor;
  }

  lm::TransformerLm model;
  cache::PrefixCache cache;
  serve::TransformerBatchDecoder decoder;
  serve::EngineConfig config;
  std::vector<std::unique_ptr<serve::Engine>> retired;
  std::unique_ptr<serve::Engine> engine;
};

/// Delegating tuner that runs `chaos` at the start of the given propose()
/// call numbers (1-based) — deterministic fault injection points.
class ChaosAtProposals final : public tune::Tuner {
 public:
  ChaosAtProposals(tune::Tuner& inner, std::vector<std::size_t> at,
                   std::function<void()> chaos)
      : inner_(&inner), at_(std::move(at)), chaos_(std::move(chaos)) {}

  perf::Syr2kConfig propose(util::Rng& rng) override {
    ++calls_;
    if (std::find(at_.begin(), at_.end(), calls_) != at_.end()) chaos_();
    return inner_->propose(rng);
  }
  void observe(const perf::Syr2kConfig& config, double runtime) override {
    inner_->observe(config, runtime);
  }
  std::string name() const override { return inner_->name(); }

 private:
  tune::Tuner* inner_;
  std::vector<std::size_t> at_;
  std::function<void()> chaos_;
  std::size_t calls_ = 0;
};

TEST(RecoverDrill, LlamboCampaignBitIdenticalAcrossTwoKillReviveCycles) {
  // The ISSUE's acceptance drill (DESIGN.md §16): a 3-replica LLAMBO
  // campaign with the prefix owner killed AND resurrected twice finishes
  // bit-identical to the fault-free single-engine run, with every revive
  // reporting ok and the ring generation stepping once per cycle.
  tune::CampaignOptions copt;
  copt.budget = 9;  // warmup 4 + 5 LM-backed proposals; chaos before #6, #8
  copt.seed = 11;
  const auto make_options = [](serve::Client* client) {
    tune::LlamboOptions options;
    options.mode = tune::LlamboMode::Discriminative;
    options.candidate_pool = 3;
    options.max_icl = 4;
    options.engine = client;
    return options;
  };

  CampaignStack solo;
  tune::LlamboTuner solo_tuner(solo.model, pipeline().tokenizer(),
                               perf::SizeClass::SM,
                               make_options(solo.engine.get()));
  const auto expected = tune::run_campaign(
      solo_tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);

  std::vector<std::unique_ptr<CampaignStack>> stacks;
  for (std::size_t i = 0; i < 3; ++i) {
    stacks.push_back(std::make_unique<CampaignStack>());
  }
  std::vector<shard::Replica> replicas;
  for (auto& stack : stacks) replicas.push_back(stack->replica());
  shard::Router router(std::move(replicas), {});
  tune::LlamboTuner fleet_tuner(stacks[0]->model, pipeline().tokenizer(),
                                perf::SizeClass::SM, make_options(&router));

  std::size_t cycles = 0;
  std::uint64_t last_generation = 0;
  ChaosAtProposals chaos_tuner(fleet_tuner, {6, 8}, [&] {
    // Kill the campaign's prefix owner — the busiest replica — then bring
    // it back before the campaign issues another batch.
    const auto routed = router.stats().routed;
    const std::size_t owner = static_cast<std::size_t>(
        std::max_element(routed.begin(), routed.end()) - routed.begin());
    EXPECT_GT(routed[owner], 0u);
    stacks[owner]->engine->kill();
    EXPECT_EQ(router.probe(owner), shard::Health::Dead);
    const shard::ReviveReport report = router.revive(owner);
    EXPECT_TRUE(report.ok);
    EXPECT_GT(report.ring_generation, last_generation);
    last_generation = report.ring_generation;
    EXPECT_EQ(router.probe(owner), shard::Health::Healthy);
    ++cycles;
  });
  const auto survived = tune::run_campaign(
      chaos_tuner, pipeline().perf_model(), perf::SizeClass::SM, copt);

  ASSERT_EQ(cycles, 2u);  // both chaos points fired mid-campaign
  EXPECT_EQ(router.stats().revives, 2u);
  EXPECT_TRUE(router.accepting());
  EXPECT_FALSE(fleet_tuner.engine_degraded());  // the fleet never dropped out

  // The kills and revives are invisible in the science.
  expect_same_campaign(expected, survived);
}

}  // namespace
}  // namespace lmpeel::recover
