#include "cache/prefix_cache.hpp"

#include <algorithm>
#include <limits>

#include "mem/page_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "util/check.hpp"

namespace lmpeel::cache {

namespace {

obs::Counter& counter(const char* name) {
  return obs::Registry::global().counter(name);
}

}  // namespace

/// One radix node.  `edge` is the token run from the parent; `kv` holds the
/// *full path* [0, depth) so assembling a match is a single copy_prefix.
/// Ancestor rows are shared pages, not copies, and every node holds its
/// own handles, so it stays consistent under splits and evictions (a node
/// never depends on its parent staying alive).
struct PrefixCache::Node {
  std::vector<int> edge;
  lm::KvCache kv;
  std::size_t depth = 0;            ///< tokens from root through this edge
  Node* parent = nullptr;
  std::map<int, std::unique_ptr<Node>> children;
  std::size_t pins = 0;
  std::uint64_t last_use = 0;
  std::size_t reserved_bytes = 0;   ///< guard reservation held for kv
};

PrefixCache::PrefixCache(lm::KvBackend& model, PrefixCacheConfig config)
    : model_(&model), config_(config), root_(std::make_unique<Node>()) {
  if (config_.page_tokens == 0) {
    config_.page_tokens = mem::PagePoolConfig{}.page_tokens;
  }
  const lm::TransformerConfig& cfg = model_->config();
  bytes_per_token_ = 2 * static_cast<std::size_t>(cfg.n_layer) *
                     static_cast<std::size_t>(cfg.d_model) * sizeof(float);
}

PrefixCache::~PrefixCache() {
  // Return every node's reservation; the nodes' pages go back to their
  // pools as the tree is destroyed.
  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_ != nullptr) {
    std::vector<Node*> stack = {root_.get()};
    while (!stack.empty()) {
      Node* node = stack.back();
      stack.pop_back();
      if (node->reserved_bytes > 0) budget_->release(node->reserved_bytes);
      for (auto& [tok, child] : node->children) stack.push_back(child.get());
    }
  }
}

void PrefixCache::bind_budget(guard::Budget* budget) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Re-binding the same budget is a no-op, so a restarted engine can
  // re-attach to a warm cache (Router::revive); only *switching* budgets
  // demands emptiness — live reservations cannot move between meters.
  if (budget == budget_) return;
  LMPEEL_CHECK_MSG(node_count_ == 0,
                   "bind_budget requires an empty prefix cache");
  budget_ = budget;
}

std::size_t PrefixCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

std::size_t PrefixCache::node_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return node_count_;
}

void PrefixCache::publish() const {
  obs::Registry::global().gauge("cache.prefix.bytes")
      .set(static_cast<double>(total_bytes_));
  obs::Registry::global().gauge("cache.prefix.nodes")
      .set(static_cast<double>(node_count_));
}

bool PrefixCache::evict_one() {
  Node* victim = nullptr;
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  std::vector<Node*> stack = {root_.get()};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    for (auto& [tok, child] : node->children) stack.push_back(child.get());
    if (node == root_.get() || !node->children.empty() || node->pins > 0) {
      continue;
    }
    if (node->last_use < oldest) {
      oldest = node->last_use;
      victim = node;
    }
  }
  if (victim == nullptr) return false;
  if (config_.spill != nullptr &&
      victim->depth >= std::max<std::size_t>(config_.min_insert_tokens, 1)) {
    // Cold entries go to disk instead of vanishing (DESIGN.md §16); a later
    // acquire() miss can pull them back.  Best effort — a failed spill just
    // degrades to the no-backend behaviour.
    config_.spill->spill(path_of(victim), victim->kv);
  }
  const std::size_t freed = node_bytes(victim->depth);
  if (budget_ != nullptr && victim->reserved_bytes > 0) {
    budget_->release(victim->reserved_bytes);
    victim->reserved_bytes = 0;
  }
  total_bytes_ -= freed;
  --node_count_;
  Node* parent = victim->parent;
  parent->children.erase(victim->edge.front());  // pages back to the pool
  counter("cache.prefix.evictions").add();
  publish();
  return true;
}

bool PrefixCache::reserve_node_bytes(std::size_t bytes) {
  if (config_.byte_budget > 0) {
    while (total_bytes_ + bytes > config_.byte_budget && evict_one()) {
    }
    if (total_bytes_ + bytes > config_.byte_budget) return false;
  }
  if (budget_ == nullptr) return true;
  while (!budget_->try_reserve(bytes)) {
    if (!evict_one()) return false;
  }
  return true;
}

PrefixCache::Lookup PrefixCache::acquire(std::span<const int> tokens,
                                         std::size_t max_tokens,
                                         std::size_t surcharge_per_token) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t cap = std::min(tokens.size(), max_tokens);
  Node* node = root_.get();
  Node* best = nullptr;
  std::size_t matched = 0;
  std::size_t depth = 0;
  while (depth < cap) {
    auto it = node->children.find(tokens[depth]);
    if (it == node->children.end()) break;
    Node* child = it->second.get();
    std::size_t common = 0;
    const std::size_t limit = std::min(child->edge.size(), cap - depth);
    while (common < limit && child->edge[common] == tokens[depth + common]) {
      ++common;
    }
    if (common > 0) {
      best = child;
      matched = depth + common;
      child->last_use = ++tick_;
    }
    if (common < child->edge.size()) break;  // diverged or cap mid-edge
    node = child;
    depth += common;
  }
  if (config_.spill != nullptr && matched < cap) {
    // The radix tree came up short — a previously evicted entry on disk may
    // still cover more of this prompt.  Reload it, re-insert (restored rows
    // are the exact evicted floats, so reuse stays bit-identical), and
    // treat it as the match.
    const std::size_t spilled =
        config_.spill->longest_prefix(tokens.first(cap), cap);
    if (spilled > matched &&
        spilled >= std::max<std::size_t>(config_.min_insert_tokens, 1)) {
      // Without a reload_pool the rows land in a private pool, and hits
      // on the reloaded node are row copies into the slot's pool.
      lm::KvCache reloaded;
      reloaded.attach_pool(config_.reload_pool);
      bool loaded = false;
      try {
        loaded = config_.spill->load(tokens.first(spilled), spilled, reloaded);
      } catch (const mem::PoolExhausted&) {
        loaded = false;  // no pages for the reload: stay a plain miss
      }
      if (loaded) {
        // Pin the walk's match while the insert may evict to make room —
        // it must stay valid in case the insert is skipped.
        if (best != nullptr) ++best->pins;
        Node* node_in = insert_locked(tokens.first(spilled), reloaded);
        if (best != nullptr) --best->pins;
        if (node_in != nullptr) {
          best = node_in;
          matched = spilled;
        }
      }
    }
  }
  if (best == nullptr || matched == 0) {
    counter("cache.prefix.misses").add();
    obs::timeline(obs::TimelineKind::PrefixMiss, obs::current_trace_id());
    return {};
  }
  ++best->pins;
  std::size_t surcharge = 0;
  if (budget_ != nullptr && surcharge_per_token > 0) {
    // Reserve the caller's copy of the matched rows so the budget's
    // reserved meter keeps covering every accounted byte.
    surcharge = matched * surcharge_per_token;
    bool ok = budget_->try_reserve(surcharge);
    while (!ok && evict_one()) ok = budget_->try_reserve(surcharge);
    if (!ok) {
      --best->pins;
      counter("cache.prefix.hit_reserve_denied").add();
      counter("cache.prefix.misses").add();
      obs::timeline(obs::TimelineKind::PrefixMiss, obs::current_trace_id());
      return {};
    }
  }
  counter("cache.prefix.hits").add();
  // The reused-token count on the request's own lane is what makes prefix
  // reuse visible per request, not just as an aggregate hit ratio.
  obs::timeline(obs::TimelineKind::PrefixHit, obs::current_trace_id(),
                static_cast<double>(matched));
  return Lookup{matched, surcharge, best};
}

void PrefixCache::copy_to(const Lookup& lookup,
                          lm::KvCache& dst) {
  std::lock_guard<std::mutex> lock(mutex_);
  LMPEEL_CHECK(lookup.node != nullptr && lookup.tokens > 0);
  LMPEEL_CHECK(lookup.tokens <= lookup.node->depth);
  LMPEEL_CHECK_MSG(lookup.node->pins > 0, "copy_to on an unpinned lookup");
  const bool zero_copy = dst.copy_prefix(lookup.node->kv, lookup.tokens);
  counter("cache.prefix.saved_prefill_tokens").add(lookup.tokens);
  // A hit on the slot's own pool hands out page handles — no KV floats
  // move; a node on another pool (a spill reload without reload_pool) is
  // copied row by row.  The byte counter stays exact either way so the
  // serve-bench gate ("pure hits copy zero bytes") can be asserted.
  if (zero_copy) {
    counter("cache.prefix.zero_copy_hits").add();
  } else {
    counter("cache.prefix.hit_bytes_copied")
        .add(lookup.tokens * bytes_per_token_);
  }
}

void PrefixCache::release(Lookup& lookup) {
  if (lookup.node != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    LMPEEL_CHECK(lookup.node->pins > 0);
    --lookup.node->pins;
  }
  lookup = Lookup{};
}

void PrefixCache::release_bytes(std::size_t bytes) {
  if (budget_ != nullptr && bytes > 0) budget_->release(bytes);
}

void PrefixCache::insert(std::span<const int> tokens,
                         const lm::KvCache& src) {
  if (tokens.size() < std::max<std::size_t>(config_.min_insert_tokens, 1)) {
    return;
  }
  LMPEEL_CHECK(src.length() >= tokens.size());
  std::lock_guard<std::mutex> lock(mutex_);
  insert_locked(tokens, src);
}

PrefixCache::Node* PrefixCache::insert_locked(
    std::span<const int> tokens, const lm::KvCache& src) {
  Node* node = root_.get();
  std::size_t depth = 0;
  while (depth < tokens.size()) {
    auto it = node->children.find(tokens[depth]);
    if (it == node->children.end()) {
      // New leaf holding the full path [0, tokens.size()).
      const std::size_t bytes = node_bytes(tokens.size());
      if (!reserve_node_bytes(bytes)) {
        counter("cache.prefix.insert_skips").add();
        return nullptr;
      }
      auto leaf = std::make_unique<Node>();
      leaf->edge.assign(tokens.begin() + static_cast<std::ptrdiff_t>(depth),
                        tokens.end());
      leaf->depth = tokens.size();
      leaf->parent = node;
      leaf->kv.copy_prefix(src, tokens.size());
      leaf->reserved_bytes = budget_ != nullptr ? bytes : 0;
      leaf->last_use = ++tick_;
      Node* leaf_raw = leaf.get();
      node->children.emplace(tokens[depth], std::move(leaf));
      total_bytes_ += bytes;
      ++node_count_;
      counter("cache.prefix.inserts").add();
      publish();
      return leaf_raw;
    }
    Node* child = it->second.get();
    std::size_t common = 0;
    const std::size_t remaining = tokens.size() - depth;
    const std::size_t limit = std::min(child->edge.size(), remaining);
    while (common < limit && child->edge[common] == tokens[depth + common]) {
      ++common;
    }
    if (common == child->edge.size()) {
      child->last_use = ++tick_;
      node = child;
      depth += common;
      continue;
    }
    // Diverged (or exhausted) mid-edge: split the edge at `common` — the
    // shared run becomes one node whose kv both branches reuse via lookup.
    const std::size_t split_depth = depth + common;
    const std::size_t bytes = node_bytes(split_depth);
    if (!reserve_node_bytes(bytes)) {
      counter("cache.prefix.insert_skips").add();
      return nullptr;
    }
    auto mid = std::make_unique<Node>();
    mid->edge.assign(child->edge.begin(),
                     child->edge.begin() + static_cast<std::ptrdiff_t>(common));
    mid->depth = split_depth;
    mid->parent = node;
    mid->kv.copy_prefix(child->kv, split_depth);
    mid->reserved_bytes = budget_ != nullptr ? bytes : 0;
    mid->last_use = ++tick_;
    std::unique_ptr<Node> owned_child = std::move(it->second);
    owned_child->edge.erase(
        owned_child->edge.begin(),
        owned_child->edge.begin() + static_cast<std::ptrdiff_t>(common));
    owned_child->parent = mid.get();
    Node* mid_raw = mid.get();
    mid->children.emplace(owned_child->edge.front(), std::move(owned_child));
    it->second = std::move(mid);
    total_bytes_ += bytes;
    ++node_count_;
    if (split_depth == tokens.size()) {
      counter("cache.prefix.inserts").add();
      publish();
      return mid_raw;
    }
    node = mid_raw;
    depth = split_depth;
  }
  // Walk ended exactly on an existing node: the prefix is already cached.
  node->last_use = ++tick_;
  counter("cache.prefix.dup_inserts").add();
  return node;
}

std::vector<int> PrefixCache::path_of(const Node* node) {
  std::vector<int> tokens(node->depth);
  std::size_t end = node->depth;
  for (const Node* n = node; n != nullptr && n->parent != nullptr;
       n = n->parent) {
    end -= n->edge.size();
    std::copy(n->edge.begin(), n->edge.end(),
              tokens.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return tokens;
}

std::vector<std::vector<int>> PrefixCache::snapshot_prefixes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<int>> prefixes;
  // Leaves carry the longest paths; inner nodes are implied by their
  // descendants (the radix tree dedups on re-insert), so leaves alone
  // reproduce the whole tree on the successor.
  // Each leaf's full token path is its parent-chain edges concatenated.
  std::vector<const Node*> stack = {root_.get()};
  std::vector<const Node*> leaves;
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node != root_.get() && node->children.empty()) leaves.push_back(node);
    for (const auto& [tok, child] : node->children) {
      stack.push_back(child.get());
    }
  }
  prefixes.reserve(leaves.size());
  for (const Node* leaf : leaves) prefixes.push_back(path_of(leaf));
  std::sort(prefixes.begin(), prefixes.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.size() > b.size();
            });
  return prefixes;
}

std::size_t PrefixCache::shed(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t freed = 0;
  while (freed < bytes) {
    const std::size_t before = total_bytes_;
    if (!evict_one()) break;
    freed += before - total_bytes_;
  }
  return freed;
}

}  // namespace lmpeel::cache
