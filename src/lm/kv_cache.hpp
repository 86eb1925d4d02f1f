// Per-layer key/value cache for autoregressive decoding (DESIGN.md §9/§14).
//
// Every KV-cached decoder backend — the f32 transformer and the quantized
// inference-only path (DESIGN.md §17) — shares this one cache type, so the
// serve/cache/recover layers are written against `lm::KvBackend` instead
// of one concrete model.  KV rows are always f32 regardless of the
// backend's weight format, so the prefix-cache and disk-spill bit-identity
// guarantees are backend-independent.
//
// Storage is paged: rows live in refcounted mem::PagePool pages, and the
// pool is the only byte accountant (a shared page is charged once, to the
// pool's guard::Budget).  A cache bound to no pool when it first grows gets
// a private one of the model's shape with the default page size, kept
// alive by every cache that shares its pages.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mem/page_pool.hpp"
#include "mem/paged_kv.hpp"

namespace lmpeel::lm {

/// Per-layer key/value cache: feeding tokens through a decode path one (or
/// a few) at a time costs O(T·d) per step instead of re-running the full
/// O(T²·d) forward pass.  Move-only.
class KvCache {
 public:
  KvCache() = default;
  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;
  KvCache(KvCache&& other) noexcept { *this = std::move(other); }
  KvCache& operator=(KvCache&& other) noexcept;

  std::size_t length() const noexcept { return length_; }
  /// Drops every row; the pool binding is kept.
  void clear() noexcept {
    paged_.reset();
    length_ = 0;
  }

  /// Binds this cache to `pool` (which must outlive it); only allowed
  /// while the cache holds no pages.  The shared_ptr overload co-owns a
  /// private pool, as a TransformerBatchDecoder built without one does.
  void attach_pool(mem::PagePool* pool);
  void attach_pool(std::shared_ptr<mem::PagePool> pool);
  mem::PagePool* pool() const noexcept { return paged_.pool(); }
  std::size_t pages_held() const noexcept { return paged_.pages_held(); }

  /// Replaces this cache's contents with the first `n_tokens` positions
  /// of `src` — a fork: both caches then grow independently.  `n_tokens`
  /// may be 0 (empty fork) or src.length() (full clone); src is never
  /// modified.  A cache bound to no pool adopts src's.  On the same pool
  /// the fork is zero-copy (page handles are shared and the boundary page
  /// copy-on-writes only at the first append, DESIGN.md §14) and this
  /// returns true; across two pools the rows are copied and it returns
  /// false.  Either way the rows are the exact floats src stored, so a
  /// subsequent prefill_from() continues bit-identically (DESIGN.md §12).
  bool copy_prefix(const KvCache& src, std::size_t n_tokens);

  /// Serializes the first `n_tokens` positions into layer-major row dumps
  /// (`keys`/`values` each become n_layer·n_tokens·d_model floats) —
  /// the disk-spill path for cold prefix-cache entries (DESIGN.md §16).
  void export_rows(std::size_t n_tokens, std::size_t n_layer,
                   std::size_t d_model, std::vector<float>& keys,
                   std::vector<float>& values) const;

  /// Inverse of export_rows(): replaces this cache's contents with the
  /// dumped rows (may throw mem::PoolExhausted).  The restored floats are
  /// the exported ones, so the cache continues bit-identically.
  void restore_rows(std::size_t n_tokens, std::size_t n_layer,
                    std::size_t d_model, std::span<const float> keys,
                    std::span<const float> values);

  // ---- append protocol of the inference body (lm/decoder_body.hpp) ------
  /// Makes positions [length(), length() + n) writable, allocating pages
  /// (a private pool of shape n_layer × d_model first, if unbound) and
  /// copy-on-writing a shared boundary page.  Throws mem::PoolExhausted.
  void grow(std::size_t n, std::size_t n_layer, std::size_t d_model);
  float* k_row(std::size_t layer, std::size_t pos) noexcept {
    return paged_.k_row(layer, pos);
  }
  float* v_row(std::size_t layer, std::size_t pos) noexcept {
    return paged_.v_row(layer, pos);
  }
  /// Page-run spans of `layer` covering positions [0, n_tokens).
  void spans(std::size_t layer, std::size_t n_tokens,
             std::vector<mem::KvSpan>& out) const {
    paged_.spans(layer, n_tokens, out);
  }
  /// Makes `n` rows written after grow() part of the sequence.
  void commit(std::size_t n) noexcept { length_ += n; }

 private:
  /// Keeps a private pool alive while this cache may hold its pages;
  /// declared before paged_ so the handles are released first.
  std::shared_ptr<mem::PagePool> owned_pool_;
  mem::PagedKv paged_;
  std::size_t length_ = 0;
};

}  // namespace lmpeel::lm
