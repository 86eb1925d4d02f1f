// Per-sequence paged KV view (DESIGN.md §14).
//
// A PagedKv is a page table: an ordered run of refcounted PageHandles that
// together cover the sequence's token positions.  It stores no lengths of
// its own — lm::KvCache, its only user, owns the logical sequence length
// and passes it into grow()/spans().
//
// Sharing model: share_from() copies page handles (refcount bumps, zero
// float copies) — that is the whole zero-copy prefix hit.  Any page with
// more than one referencing handle is immutable; grow() copy-on-writes the
// partial boundary page before the first append into it, copying only the
// rows the growing sequence logically owns.  Full pages below the boundary
// are never written again, so sharers can read them lock-free forever.
#pragma once

#include <cstddef>
#include <vector>

#include "mem/page_pool.hpp"

namespace lmpeel::mem {

/// One contiguous run of token rows inside a single page: `k`/`v` point at
/// the first row of the layer's K/V block, rows are d_model floats apart.
/// The attention kernel gathers over a list of these; the training
/// forward() passes one span over its own QKV rows, so both execute the
/// same kernel code path (the bit-exactness argument, DESIGN.md §14).
struct KvSpan {
  const float* k = nullptr;
  const float* v = nullptr;
  std::size_t tokens = 0;
};

class PagedKv {
 public:
  PagedKv() = default;

  /// Binds this view to `pool` (null detaches).  Only allowed while the
  /// view holds no pages.
  void attach(PagePool* pool);
  PagePool* pool() const noexcept { return pool_; }

  /// Drops every page handle (pool binding is kept).
  void reset() noexcept { pages_.clear(); }
  std::size_t pages_held() const noexcept { return pages_.size(); }

  /// Makes positions [old_len, new_len) writable given that [0, old_len)
  /// are the currently valid rows: allocates pages to cover new_len and
  /// copy-on-writes the boundary page when it is shared (copying only the
  /// old_len % page_tokens rows this sequence owns).  Throws PoolExhausted
  /// when the pool cannot grow.
  void grow(std::size_t old_len, std::size_t new_len);

  /// Becomes a zero-copy view of the first `n_tokens` positions of `src`:
  /// existing pages are dropped and the handles covering [0, n_tokens) are
  /// copied (refcount bumps only, no float copies).  Both views must be on
  /// the same pool.
  void share_from(const PagedKv& src, std::size_t n_tokens);

  /// Writable row pointers; the position's page must be covered by grow()
  /// and uniquely owned (grow()'s post-condition for [old_len, new_len)).
  float* k_row(std::size_t layer, std::size_t pos) noexcept;
  float* v_row(std::size_t layer, std::size_t pos) noexcept;

  /// Appends the page-run spans covering positions [0, n_tokens) of
  /// `layer` to `out` (cleared first).  The final span is clipped to
  /// n_tokens so a shared boundary page never exposes another sequence's
  /// rows.
  void spans(std::size_t layer, std::size_t n_tokens,
             std::vector<KvSpan>& out) const;

 private:
  PagePool* pool_ = nullptr;
  std::vector<PageHandle> pages_;
};

}  // namespace lmpeel::mem
