#include <gtest/gtest.h>

#include <sstream>

#include "lm/transformer.hpp"
#include "perf/dataset.hpp"
#include "tok/tokenizer.hpp"

namespace lmpeel {
namespace {

TEST(TokenizerSerialization, RoundTripPreservesIdSpace) {
  tok::Tokenizer original;
  original.train_bpe(
      "Hyperparameter configuration performance tiling factor packed "
      "interchange loops Hyperparameter configuration performance tiling",
      150);

  std::stringstream stream;
  original.save(stream);
  const tok::Tokenizer restored = tok::Tokenizer::load(stream);

  EXPECT_EQ(restored.vocab_size(), original.vocab_size());
  const std::string text =
      "Hyperparameter configuration: tiling factor is 64\n"
      "Performance: 0.0022155\n";
  EXPECT_EQ(restored.encode(text), original.encode(text));
  EXPECT_EQ(restored.decode(original.encode(text)), text);
}

TEST(TokenizerSerialization, EmptyMergeListIsValid) {
  tok::Tokenizer base;  // no merges trained
  std::stringstream stream;
  base.save(stream);
  const tok::Tokenizer restored = tok::Tokenizer::load(stream);
  EXPECT_EQ(restored.vocab_size(), base.vocab_size());
}

TEST(TokenizerSerialization, RejectsGarbage) {
  std::stringstream stream("not a merge file at all");
  EXPECT_THROW(tok::Tokenizer::load(stream), std::runtime_error);
}

TEST(TransformerSerialization, RoundTripReproducesLogits) {
  lm::TransformerConfig config;
  config.vocab = 80;
  config.d_model = 32;
  config.n_head = 2;
  config.n_layer = 2;
  config.max_seq = 32;
  lm::TransformerLm original(config, 3);

  std::stringstream stream;
  original.save(stream);
  lm::TransformerLm restored(config, 999);  // different init
  restored.load(stream);

  const std::vector<int> ctx{5, 9, 2, 7};
  std::vector<float> a(80), b(80);
  original.next_logits(ctx, /*seed=*/0, a);
  restored.next_logits(ctx, /*seed=*/0, b);
  for (int v = 0; v < 80; ++v) EXPECT_FLOAT_EQ(a[v], b[v]);
}

TEST(TransformerSerialization, RejectsConfigMismatch) {
  lm::TransformerConfig config;
  config.vocab = 80;
  config.d_model = 32;
  config.n_head = 2;
  config.n_layer = 2;
  config.max_seq = 32;
  lm::TransformerLm model(config, 3);
  std::stringstream stream;
  model.save(stream);

  config.d_model = 64;
  lm::TransformerLm other(config, 3);
  EXPECT_THROW(other.load(stream), std::runtime_error);
}

TEST(TransformerSerialization, RejectsWrongMagic) {
  lm::TransformerConfig config;
  config.vocab = 10;
  config.d_model = 8;
  config.n_head = 2;
  config.n_layer = 1;
  config.max_seq = 8;
  lm::TransformerLm model(config, 3);
  std::stringstream stream("XXXXgarbage");
  EXPECT_THROW(model.load(stream), std::runtime_error);
}

TEST(DatasetSerialization, CsvRoundTripIsExact) {
  const perf::Dataset original =
      perf::Dataset::generate(perf::Syr2kModel{}, perf::SizeClass::SM, 42);
  std::stringstream stream;
  original.write_csv(stream);
  const perf::Dataset restored = perf::Dataset::read_csv(stream);

  EXPECT_EQ(restored.size_class(), original.size_class());
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); i += 503) {
    EXPECT_EQ(restored[i].config_index, original[i].config_index);
    EXPECT_EQ(restored[i].config, original[i].config);
    EXPECT_DOUBLE_EQ(restored[i].runtime, original[i].runtime);
  }
}

TEST(DatasetSerialization, RejectsBadHeaderAndRows) {
  {
    std::stringstream stream("wrong,header,row\n");
    EXPECT_THROW(perf::Dataset::read_csv(stream), std::runtime_error);
  }
  {
    std::stringstream stream("size,config_index,runtime\nSM,12,-1.0\n");
    EXPECT_THROW(perf::Dataset::read_csv(stream), std::runtime_error);
  }
  {
    std::stringstream stream("size,config_index,runtime\nQQ,12,1.0\n");
    EXPECT_THROW(perf::Dataset::read_csv(stream), std::runtime_error);
  }
  {
    std::stringstream stream("size,config_index,runtime\n");
    EXPECT_THROW(perf::Dataset::read_csv(stream), std::runtime_error);
  }
}

}  // namespace
}  // namespace lmpeel
