#include "lm/kv_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lmpeel::lm {

KvCache& KvCache::operator=(KvCache&& other) noexcept {
  if (this != &other) {
    // Pages first, pool second: the old handles release into the old pool
    // while owned_pool_ still keeps it alive.
    paged_ = std::move(other.paged_);
    owned_pool_ = std::move(other.owned_pool_);
    length_ = std::exchange(other.length_, 0);
    other.paged_ = mem::PagedKv{};
  }
  return *this;
}

void KvCache::attach_pool(mem::PagePool* pool) {
  if (pool == this->pool()) return;
  paged_.attach(pool);
  owned_pool_.reset();
}

void KvCache::attach_pool(std::shared_ptr<mem::PagePool> pool) {
  paged_.attach(pool.get());
  owned_pool_ = std::move(pool);
}

void KvCache::grow(std::size_t n, std::size_t n_layer, std::size_t d_model) {
  if (pool() == nullptr) {
    mem::PagePoolConfig config;
    config.n_layer = n_layer;
    config.d_model = d_model;
    attach_pool(std::make_shared<mem::PagePool>(config));
  }
  LMPEEL_CHECK_MSG(pool()->config().n_layer == n_layer &&
                       pool()->config().d_model == d_model,
                   "KvCache pool shape does not match the model");
  paged_.grow(length_, length_ + n);
}

bool KvCache::copy_prefix(const KvCache& src, std::size_t n_tokens) {
  LMPEEL_CHECK(n_tokens <= src.length_);
  clear();
  if (pool() == nullptr && src.pool() != nullptr) {
    paged_.attach(src.pool());
    owned_pool_ = src.owned_pool_;
  }
  if (n_tokens == 0) return true;
  if (pool() == src.pool()) {
    // Zero-copy fork: share the page handles covering [0, n_tokens).  No
    // floats move; grow() copy-on-writes the boundary page at the first
    // append, so both forks stay independent.
    paged_.share_from(src.paged_, n_tokens);
    length_ = n_tokens;
    return true;
  }
  // Pages cannot be shared across pools (each pool accounts its own), so
  // the rows are copied through the spill dump format.
  const mem::PagePoolConfig& shape = src.pool()->config();
  std::vector<float> keys, values;
  src.export_rows(n_tokens, shape.n_layer, shape.d_model, keys, values);
  restore_rows(n_tokens, shape.n_layer, shape.d_model, keys, values);
  return false;
}

void KvCache::export_rows(std::size_t n_tokens, std::size_t n_layer,
                          std::size_t d_model, std::vector<float>& keys,
                          std::vector<float>& values) const {
  LMPEEL_CHECK(n_tokens <= length_);
  keys.assign(n_tokens * n_layer * d_model, 0.0f);
  values.assign(n_tokens * n_layer * d_model, 0.0f);
  if (n_tokens == 0) return;
  std::vector<mem::KvSpan> run;
  for (std::size_t l = 0; l < n_layer; ++l) {
    float* kdst = keys.data() + l * n_tokens * d_model;
    float* vdst = values.data() + l * n_tokens * d_model;
    spans(l, n_tokens, run);
    std::size_t t = 0;
    for (const mem::KvSpan& s : run) {
      std::copy_n(s.k, s.tokens * d_model, kdst + t * d_model);
      std::copy_n(s.v, s.tokens * d_model, vdst + t * d_model);
      t += s.tokens;
    }
    LMPEEL_CHECK(t == n_tokens);
  }
}

void KvCache::restore_rows(std::size_t n_tokens, std::size_t n_layer,
                           std::size_t d_model, std::span<const float> keys,
                           std::span<const float> values) {
  LMPEEL_CHECK(keys.size() == n_tokens * n_layer * d_model);
  LMPEEL_CHECK(values.size() == keys.size());
  clear();
  grow(n_tokens, n_layer, d_model);
  for (std::size_t l = 0; l < n_layer; ++l) {
    const float* ksrc = keys.data() + l * n_tokens * d_model;
    const float* vsrc = values.data() + l * n_tokens * d_model;
    for (std::size_t t = 0; t < n_tokens; ++t) {
      std::copy_n(ksrc + t * d_model, d_model, k_row(l, t));
      std::copy_n(vsrc + t * d_model, d_model, v_row(l, t));
    }
  }
  commit(n_tokens);
}

}  // namespace lmpeel::lm
