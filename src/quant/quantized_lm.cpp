#include "quant/quantized_lm.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace lmpeel::quant {

namespace {

// Per-thread matmul scratch: decode steps may be split across the global
// thread pool (serve::TransformerBatchDecoder), and each chunk calls
// decode_batch concurrently — thread_local keeps the buffers reusable
// without sharing.
QuantScratch& tls_scratch() {
  static thread_local QuantScratch scratch;
  return scratch;
}

}  // namespace

const char* format_name(WeightFormat format) {
  return format == WeightFormat::kInt8 ? "int8" : "fp16";
}

QuantizedLm::QuantizedLm(lm::TransformerLm& source, WeightFormat format,
                         Arch arch)
    : config_(source.config()),
      format_(format),
      arch_(arch),
      kernels_(&kernels(arch)) {
  const std::vector<lm::Tensor*> params = source.parameters();
  std::size_t idx = 0;
  auto next = [&]() -> const lm::Tensor& { return *params[idx++]; };

  const lm::Tensor& tok_emb = next();
  pos_emb_ = next();
  lnf_g_ = next();
  lnf_b_ = next();
  if (format_ == WeightFormat::kInt8) {
    tok_emb_q_ = QTensor::from_rows(tok_emb);
  } else {
    tok_emb_h_ = HTensor::from_rows(tok_emb);
  }

  layers_.resize(static_cast<std::size_t>(config_.n_layer));
  for (QLayer& layer : layers_) {
    // parameters() order per block: ln1, qkv, out, ln2, fc1, fc2.
    layer.ln1_g = next();
    layer.ln1_b = next();
    const lm::Tensor* w[kProjections];
    for (std::size_t p = 0; p < kProjections; ++p) {
      if (p == static_cast<std::size_t>(lm::Proj::kFc1)) {
        layer.ln2_g = next();
        layer.ln2_b = next();
      }
      w[p] = &next();
      layer.bias[p] = next();
    }
    for (std::size_t p = 0; p < kProjections; ++p) {
      if (format_ == WeightFormat::kInt8) {
        layer.q[p] = QTensor::from_matmul_weights(*w[p]);
      } else {
        layer.h[p] = HTensor::from_matmul_weights(*w[p]);
      }
    }
  }
  LMPEEL_CHECK(idx == params.size());

  f32_bytes_ = source.parameter_count() * sizeof(float);
  std::size_t bytes = pos_emb_.size() * sizeof(float) +
                      (lnf_g_.size() + lnf_b_.size()) * sizeof(float);
  bytes += format_ == WeightFormat::kInt8 ? tok_emb_q_.bytes()
                                          : tok_emb_h_.bytes();
  for (const QLayer& l : layers_) {
    bytes += (l.ln1_g.size() + l.ln1_b.size() + l.ln2_g.size() +
              l.ln2_b.size()) *
             sizeof(float);
    for (std::size_t p = 0; p < kProjections; ++p) {
      bytes += l.bias[p].size() * sizeof(float) +
               (format_ == WeightFormat::kInt8 ? l.q[p].bytes()
                                               : l.h[p].bytes());
    }
  }
  weight_bytes_ = bytes;
}

QuantizedLm::~QuantizedLm() { bind_weight_budget(nullptr); }

std::string QuantizedLm::name() const {
  return std::string("quantized-lm-") + format_name(format_);
}

void QuantizedLm::bind_weight_budget(guard::Budget* budget) {
  if (budget == budget_) return;
  if (budget_ != nullptr) budget_->uncharge(weight_bytes_);
  budget_ = budget;
  if (budget_ != nullptr) budget_->charge(weight_bytes_);
}

std::vector<QuantizedLm::TensorReport> QuantizedLm::tensor_reports() const {
  std::vector<TensorReport> out;
  const bool i8 = format_ == WeightFormat::kInt8;
  auto add = [&](const std::string& name, const QTensor& q,
                 const HTensor& h) {
    TensorReport r;
    r.name = name;
    if (i8) {
      r.rows = q.k;
      r.cols = q.n;
      r.scale = q.scale;
      r.max_abs_error = q.max_abs_error;
      r.rms_error = q.rms_error;
      r.bytes = q.bytes();
    } else {
      r.rows = h.k;
      r.cols = h.n;
      r.max_abs_error = h.max_abs_error;
      r.rms_error = h.rms_error;
      r.bytes = h.bytes();
    }
    out.push_back(std::move(r));
  };
  add("tok_emb", tok_emb_q_, tok_emb_h_);
  const char* const names[kProjections] = {"w_qkv", "w_o", "w_fc1", "w_fc2"};
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::string prefix = "layer" + std::to_string(l) + ".";
    for (std::size_t p = 0; p < kProjections; ++p) {
      add(prefix + names[p], layers_[l].q[p], layers_[l].h[p]);
    }
  }
  return out;
}

void QuantizedLm::prefill_from(lm::KvCache& cache,
                               std::span<const int> suffix,
                               std::span<float> out) {
  obs::Span span("quant.prefill_from");
  obs::Registry::global()
      .counter("quant.dequant_matmul_tokens")
      .add(suffix.size());
  lm::prefill_rows(*this, config_, cache, suffix, out);
}

void QuantizedLm::decode_batch(std::span<lm::KvCache* const> caches,
                               std::span<const int> tokens,
                               lm::Tensor& logits_out) {
  obs::Span span("quant.decode_batch");
  obs::Registry::global()
      .counter("quant.dequant_matmul_tokens")
      .add(caches.size());
  lm::decode_rows(*this, config_, caches, tokens, logits_out);
}

void QuantizedLm::embed(int id, std::size_t pos, float* row) const {
  const auto d = static_cast<std::size_t>(config_.d_model);
  const float* pe = pos_emb_.data() + pos * d;
  if (format_ == WeightFormat::kInt8) {
    // Token `id` is column `id` of the packed tied head.
    const auto j = static_cast<std::size_t>(id);
    const float s = tok_emb_q_.scale;
    for (std::size_t c = 0; c < d; ++c) {
      row[c] = static_cast<float>(tok_emb_q_.code(j, c)) * s + pe[c];
    }
  } else {
    const std::uint16_t* te =
        tok_emb_h_.h.data() + static_cast<std::size_t>(id) * d;
    for (std::size_t c = 0; c < d; ++c) {
      row[c] = half_to_float(te[c]) + pe[c];
    }
  }
}

void QuantizedLm::project(std::size_t layer, lm::Proj proj,
                          const lm::Tensor& act, lm::Tensor& out) const {
  const QLayer& l = layers_[layer];
  const auto p = static_cast<std::size_t>(proj);
  if (format_ == WeightFormat::kInt8) {
    qmatmul(act, l.q[p], &l.bias[p], *kernels_, tls_scratch(), out);
  } else {
    hmatmul(act, l.h[p], &l.bias[p], *kernels_, out);
  }
}

void QuantizedLm::head(const lm::Tensor& f, lm::Tensor& logits) const {
  if (format_ == WeightFormat::kInt8) {
    qmatmul(f, tok_emb_q_, nullptr, *kernels_, tls_scratch(), logits);
  } else {
    hmatmul(f, tok_emb_h_, nullptr, *kernels_, logits);
  }
}

lm::WeightOps::Norm QuantizedLm::norm(std::size_t layer, bool second) const {
  if (layer == layers_.size()) return {lnf_g_.row(0), lnf_b_.row(0)};
  const QLayer& l = layers_[layer];
  return second ? Norm{l.ln2_g.row(0), l.ln2_b.row(0)}
                : Norm{l.ln1_g.row(0), l.ln1_b.row(0)};
}

void QuantizedLm::next_logits(std::span<const int> context,
                              std::uint64_t /*seed*/, std::span<float> out) {
  LMPEEL_CHECK(!context.empty());
  std::span<const int> window = context;
  if (window.size() > static_cast<std::size_t>(config_.max_seq)) {
    window = window.subspan(window.size() -
                            static_cast<std::size_t>(config_.max_seq));
  }
  lm::KvCache cache;
  prefill(cache, window, out);
}

}  // namespace lmpeel::quant
