// Process-wide memory governance for the serve/tune stack (DESIGN.md §11).
//
// The serve engine admits work by queue slots; nothing bounds what that work
// *costs*.  A Budget makes cost a first-class admission input.  It tracks two
// meters against one byte limit:
//
//   * reservations — the engine's conservative, up-front estimate of a
//     request's peak footprint (KV cache for prompt + max_tokens, plus logits
//     scratch), taken with try_reserve() before prefill and released when the
//     request retires.  A failed reservation is the shedding trigger.
//   * accounted bytes — the *actual* allocation trail, reported by the KV
//     mem::PagePool (once per in-use page) and the batched-decode scratch
//     as they grow and shrink.  Because per-request estimates are upper
//     bounds, accounted bytes never exceed reserved bytes, and therefore
//     never exceed the limit — the invariant the soak harness asserts.
//
// Both meters are lock-free atomics; a Budget is safe to share between the
// scheduler thread, pool workers growing KV caches, and harness threads
// reading the gauges.
//
// Budgets compose hierarchically (DESIGN.md §15): a child Budget forwards
// every reservation and charge to its parent, so N per-replica children
// under one global parent give each replica a local cap while the fleet
// shares one global cap.  A reservation must clear *both* limits; when the
// parent refuses, the child rolls its own meter back.  Because a replica's
// requests release their reservations as they retire — even when the
// replica is kill()ed, since every future resolves — a dying replica
// drains its child back to zero and returns its bytes to the fleet.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lmpeel::guard {

class Budget {
 public:
  /// `limit_bytes` = 0 means unlimited: reservations always succeed but both
  /// meters still track, so accounting stays observable without enforcement.
  /// A non-null `parent` makes this a child budget: reservations and charges
  /// propagate upward and must clear the parent's limit too.  The parent
  /// must outlive the child, and the child's meters must drain to zero
  /// before the parent is destroyed.
  explicit Budget(std::size_t limit_bytes = 0, Budget* parent = nullptr)
      : limit_(limit_bytes), parent_(parent) {}

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  std::size_t limit() const noexcept { return limit_; }
  Budget* parent() const noexcept { return parent_; }

  // ---- admission-side reservations --------------------------------------
  /// Reserves `bytes` against the limit; returns false (and counts a
  /// denial) when the reservation would push reserved() past limit().
  bool try_reserve(std::size_t bytes) noexcept;
  /// Returns a reservation.  Release exactly what was reserved.
  void release(std::size_t bytes) noexcept;
  std::size_t reserved() const noexcept {
    return reserved_.load(std::memory_order_relaxed);
  }
  std::uint64_t denied() const noexcept {
    return denied_.load(std::memory_order_relaxed);
  }

  // ---- allocation-side accounting ---------------------------------------
  /// Reports `bytes` of live allocation (KV rows, logits scratch).  Never
  /// fails: enforcement happens at reservation time; accounting is the
  /// ground truth the reservations are checked against.
  void charge(std::size_t bytes) noexcept;
  void uncharge(std::size_t bytes) noexcept;
  std::size_t accounted() const noexcept {
    return accounted_.load(std::memory_order_relaxed);
  }
  /// High-water mark of accounted() since construction.
  std::size_t accounted_peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  /// Adds `bytes` to this budget's own reserved meter if it fits under
  /// limit_; does not consult the parent.  Returns false on denial.
  bool reserve_local(std::size_t bytes) noexcept;

  const std::size_t limit_;
  Budget* const parent_ = nullptr;
  std::atomic<std::size_t> reserved_{0};
  std::atomic<std::size_t> accounted_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::uint64_t> denied_{0};
};

/// RAII charge for scoped scratch (a batched step's chunk logits): charges
/// on construction, uncharges on destruction.  A null budget is a no-op, so
/// call sites don't branch.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ScopedCharge(Budget* budget, std::size_t bytes) noexcept
      : budget_(budget), bytes_(bytes) {
    if (budget_ != nullptr) budget_->charge(bytes_);
  }
  ~ScopedCharge() {
    if (budget_ != nullptr) budget_->uncharge(bytes_);
  }
  ScopedCharge(ScopedCharge&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
  }
  ScopedCharge& operator=(ScopedCharge&& other) noexcept {
    if (this != &other) {
      if (budget_ != nullptr) budget_->uncharge(bytes_);
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
    }
    return *this;
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

 private:
  Budget* budget_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace lmpeel::guard
