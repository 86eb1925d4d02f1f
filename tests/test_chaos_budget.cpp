// Chaos under memory pressure (slow label): the seeded fault schedule from
// test_fault.cpp's chaos run, now squeezed through a guard::Budget sized
// for roughly two in-flight requests.  The engine must shed (Shed), not
// die — every request resolves, the accounting invariant holds, and the
// post-chaos probe is still served.
#include "fault/chaos.hpp"

#include <gtest/gtest.h>

#include "lm/transformer.hpp"
#include "serve/decoder.hpp"

namespace lmpeel {
namespace {

lm::TransformerConfig tiny_config() {
  lm::TransformerConfig cfg;
  cfg.vocab = 60;
  cfg.d_model = 32;
  cfg.n_head = 2;
  cfg.n_layer = 2;
  cfg.max_seq = 64;
  return cfg;
}

TEST(ChaosBudget, ShedsUnderMemoryPressureInsteadOfDying) {
  lm::TransformerLm model(tiny_config(), 11);
  fault::ChaosOptions options;
  options.seed = 7;
  options.requests = 32;
  options.wedge_s = 0.1;
  // Roughly two requests' worth (≤ 19 tokens at 512 bytes/token plus two
  // 16-token pages of paging slack, ~27 KB each) — far under what 32
  // queued requests demand, so the shed path runs for real.
  options.budget_bytes = 54000;
  options.queue_slo_s = 0.05;

  serve::TransformerBatchDecoder decoder(model, options.max_batch);
  const auto report = fault::run_chaos(decoder, options);

  EXPECT_TRUE(report.all_resolved);
  EXPECT_TRUE(report.survived());
  EXPECT_EQ(report.probe_status, serve::RequestStatus::Ok);
  // Budget pressure showed up as policy sheds, and the accounting
  // invariant held throughout: actual allocations never passed the limit.
  EXPECT_GT(report.shed, 0u);
  EXPECT_LE(report.accounted_peak_bytes, options.budget_bytes);
  // Every request has a definite status accounted for by the tallies.
  EXPECT_EQ(report.ok + report.queue_full + report.engine_error +
                report.shed + report.other,
            options.requests);

  // Same seed, same schedule: a second run survives the same way (exact
  // statuses may differ — eviction depends on what is in flight when the
  // budget bites, which is wall-clock dependent).
  serve::TransformerBatchDecoder decoder_b(model, options.max_batch);
  const auto again = fault::run_chaos(decoder_b, options);
  EXPECT_TRUE(again.survived());
  EXPECT_GT(again.shed, 0u);
  EXPECT_LE(again.accounted_peak_bytes, options.budget_bytes);
}

}  // namespace
}  // namespace lmpeel
