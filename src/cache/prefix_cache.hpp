// Shared-prefix KV cache: radix-tree prompt reuse (DESIGN.md §12).
//
// LLAMBO-style tuning issues one request per candidate per iteration, and
// every prompt in an iteration shares the same long in-context-example
// block — only the short candidate tail differs.  PrefixCache stores the
// key/value rows of previously prefilled prompt prefixes in a radix tree
// keyed on token ids, so the serve layer can prefill only the un-cached
// suffix of each new prompt.  The cache is a pure accelerator: reuse is
// bit-identical to a full prefill (every lm kernel is row-independent with
// fixed k-ascending accumulation and positional embeddings are absolute),
// so turning it on or off never changes any logit.
//
// Resource governance: node KV bytes are reserved against an optional
// guard::Budget, mirroring how the serve engine reserves for live slots
// (the page pool the nodes share with the slots charges the bytes, once
// per page); when a reservation fails the cache evicts LRU leaves and, if
// still short, simply skips the insert (requests always win over cached
// state).  acquire() additionally reserves a per-request surcharge that
// covers the caller's own copy of the matched prefix, so the budget's
// accounted-bytes <= reserved-bytes invariant holds end to end.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "guard/budget.hpp"
#include "lm/backend.hpp"

namespace lmpeel::cache {

struct PrefixCacheConfig {
  /// Soft cap on total cached KV bytes; 0 = unlimited (a bound
  /// guard::Budget still applies).  LRU leaves are evicted to stay under.
  std::size_t byte_budget = 0;
  /// Prefixes shorter than this are not worth a node.
  std::size_t min_insert_tokens = 2;
  /// When a request carries no explicit shared-prefix hint, insert its
  /// whole prompt (the radix tree dedups overlap).  Off = only hinted
  /// prefixes are stored.
  bool auto_insert_prompts = true;
  /// Reservation granularity in tokens: the page_tokens of the
  /// mem::PagePool the node KvCaches share (DESIGN.md §14).  A node's pages
  /// are charged in whole-page units, so its reservation rounds the token
  /// count up to a page boundary to stay an upper bound on the bytes it can
  /// end up owning once its sharers release.  0 = the default page size,
  /// which is what a decoder built without a pool pages with.
  std::size_t page_tokens = 0;
  /// Read by nothing: cached nodes live on the pool of the KvCache they
  /// were inserted from.  Kept only because perfbench still sets it.
  mem::PagePool* reload_pool = nullptr;
};

/// Radix/trie store over token-id prefixes.  Each node owns a full-path
/// KvCache (positions [0, depth)); longest-prefix-match lookup pins the
/// node so eviction can never free rows a request is copying.  All methods
/// are thread-safe behind one leaf-level mutex that calls out to no engine
/// or pool lock, so it can never participate in a cycle with them.
class PrefixCache {
 public:
  explicit PrefixCache(lm::KvBackend& model, PrefixCacheConfig config = {});
  ~PrefixCache();
  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  struct Node;

  /// Result of a longest-prefix match.  While `node` is set the matched
  /// node is pinned; pass the Lookup back to release() exactly once.
  struct Lookup {
    std::size_t tokens = 0;           ///< matched prefix length; 0 = miss
    std::size_t surcharge_bytes = 0;  ///< budget reservation held for the
                                      ///< caller's copy of the prefix
    Node* node = nullptr;
  };

  /// Longest cached prefix of `tokens`, capped at `max_tokens` (callers
  /// pass prompt-1 so at least one suffix token remains to produce
  /// logits).  On a hit the node is pinned and, when a budget is bound and
  /// `surcharge_per_token` > 0, tokens·surcharge_per_token bytes are
  /// reserved for the caller's copy; if that reservation cannot be made
  /// even after evicting, the match is dropped and a miss returned.
  Lookup acquire(std::span<const int> tokens, std::size_t max_tokens,
                 std::size_t surcharge_per_token);

  /// Forks the matched prefix into `dst` (KvCache::copy_prefix: zero-copy
  /// on the node's pool, a row copy across pools) and bumps the
  /// saved-prefill-tokens counter.  Requires a hit Lookup.
  void copy_to(const Lookup& lookup, lm::KvCache& dst);

  /// Unpins the Lookup's node (no-op for a miss) and resets it.  The
  /// surcharge reservation stays with the caller — return it through
  /// release_bytes() when the copied prefix is freed.
  void release(Lookup& lookup);

  /// Returns a surcharge reservation taken by acquire().
  void release_bytes(std::size_t bytes);

  /// Stores the first `tokens.size()` positions of `src` (which must hold
  /// at least that many).  Shared prefixes dedup structurally: an existing
  /// edge is split at the divergence point and the common part becomes one
  /// node.  Never throws resource errors — if bytes cannot be reserved the
  /// insert is skipped and counted.
  void insert(std::span<const int> tokens,
              const lm::KvCache& src);

  /// Evicts LRU unpinned leaves until >= `bytes` are freed or nothing is
  /// evictable; returns the bytes actually freed.  The serve engine calls
  /// this before shedding live work — cached state is the cheapest thing
  /// to give up under pressure.
  std::size_t shed(std::size_t bytes);

  /// Routes node reservations through `budget` (null detaches).  Must
  /// only be called while the cache is empty.
  void bind_budget(guard::Budget* budget);

  /// The token-id paths of every cached leaf, longest first.  This is the
  /// drain-migration payload (DESIGN.md §15): a Router moving a replica's
  /// prefix affinity hands the *token ids* — never KV pages, which are
  /// replica-local — to the successor, which re-prefills them once and
  /// re-inserts.  Correctness does not depend on this (the cache is a pure
  /// accelerator); only the first-request latency on the successor does.
  std::vector<std::vector<int>> snapshot_prefixes() const;

  const PrefixCacheConfig& config() const noexcept { return config_; }
  std::size_t bytes() const;
  std::size_t node_count() const;

 private:
  std::size_t node_bytes(std::size_t n_tokens) const noexcept {
    const std::size_t pages =
        (n_tokens + config_.page_tokens - 1) / config_.page_tokens;
    return pages * config_.page_tokens * bytes_per_token_;
  }
  /// Reserves `bytes` for a new node, evicting as needed; false = give up.
  bool reserve_node_bytes(std::size_t bytes);
  /// Evicts the least-recently-used unpinned leaf; false = none evictable.
  bool evict_one();
  /// Full token path of `node` (root-chain edges concatenated).
  static std::vector<int> path_of(const Node* node);
  void publish() const;

  lm::KvBackend* model_;
  PrefixCacheConfig config_;
  std::size_t bytes_per_token_;
  guard::Budget* budget_ = nullptr;

  mutable std::mutex mutex_;
  std::unique_ptr<Node> root_;
  std::size_t total_bytes_ = 0;
  std::size_t node_count_ = 0;
  std::uint64_t tick_ = 0;  ///< LRU clock
};

}  // namespace lmpeel::cache
