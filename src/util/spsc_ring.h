// A bounded lock-free single-producer/single-consumer ring buffer.
//
// Used as the fast path inside QueueOp when a decoupling queue is known to
// have exactly one producing partition and one consuming partition — the
// common case after stall-avoiding placement, where each queue sits on one
// inter-partition edge.

#ifndef FLEXSTREAM_UTIL_SPSC_RING_H_
#define FLEXSTREAM_UTIL_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "util/logging.h"

namespace flexstream {

/// Fixed-capacity SPSC queue. Capacity is rounded up to a power of two.
/// TryPush/TryPop never block; the caller decides how to handle a full or
/// empty ring (QueueOp spills to its mutex-protected overflow deque on the
/// producer side).
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Returns false when the ring is full.
  bool TryPush(T value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ > mask_) {
      // Only now pay the cross-core read of the consumer's index.
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ > mask_) return false;
    }
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Returns nullopt when the ring is empty. The vacated slot is reset to a
  /// default-constructed T so a popped element's heap payload (e.g. a
  /// Tuple's values vector) is released immediately instead of staying
  /// pinned until the slot is overwritten by a later push.
  std::optional<T> TryPop() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (!ConsumerSees(tail)) return std::nullopt;
    T value = std::move(slots_[tail & mask_]);
    slots_[tail & mask_] = T();
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  /// Producer-side push that skips the full check and the by-value
  /// parameter copy of TryPush. Precondition: the caller just observed
  /// !FullApprox() — which is producer-exact, so the slot is free.
  void PushUnchecked(T&& value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    DCHECK(head - cached_tail_ <= mask_);
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
  }

  /// Producer-side: free slots available right now, refreshing the cached
  /// consumer index only when fewer than `want` appear free. Like
  /// FullApprox, the answer is producer-exact: only the consumer frees
  /// space, so the count can grow but never shrink before the producer's
  /// next push.
  size_t FreeForProducer(size_t want) const {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t free = capacity() - (head - cached_tail_);
    if (free < want) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      free = capacity() - (head - cached_tail_);
    }
    return free;
  }

  /// Producer-side bulk push: fills `n` consecutive slots with `make(i)`
  /// for i in [0, n) and publishes them all with ONE release store of the
  /// head index — the per-element store of PushUnchecked amortized to once
  /// per run. Precondition: FreeForProducer(n) just returned >= n.
  template <typename MakeFn>
  void PushBulkUnchecked(size_t n, MakeFn&& make) {
    const size_t head = head_.load(std::memory_order_relaxed);
    DCHECK(capacity() - (head - cached_tail_) >= n);
    for (size_t i = 0; i < n; ++i) {
      slots_[(head + i) & mask_] = make(i);
    }
    head_.store(head + n, std::memory_order_release);
  }

  /// Consumer-side peek at the element `offset` slots past the front — the
  /// random-access companion of FrontMutable for bulk drains. Precondition:
  /// offset < AvailableToConsumer() (the slot was observed). The pointer
  /// stays valid until the consumer pops past it.
  T* AtFromFront(size_t offset) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    return &slots_[(tail + offset) & mask_];
  }

  /// Consumer-side bulk pop: releases the first `n` slots with ONE release
  /// store of the tail index, resetting each vacated slot to a
  /// default-constructed T (same payload-release guarantee as PopFront).
  /// Precondition: n <= AvailableToConsumer().
  void PopFrontBulk(size_t n) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = T();
    }
    tail_.store(tail + n, std::memory_order_release);
  }

  /// Consumer-side peek at the oldest element, or nullptr when empty. The
  /// pointer stays valid until the consumer pops: the producer never
  /// rewrites a slot while head - tail <= mask_. Must only be called from
  /// the consumer thread.
  const T* Front() const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (!ConsumerSees(tail)) return nullptr;
    return &slots_[tail & mask_];
  }

  /// Mutable peek: lets the consumer move the element's payload out in
  /// place (the producer cannot rewrite the slot until PopFront advances
  /// the tail). Consumer-side.
  T* FrontMutable() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (!ConsumerSees(tail)) return nullptr;
    return &slots_[tail & mask_];
  }

  /// Drops the front element, resetting its slot to a default-constructed
  /// T (same payload-release guarantee as TryPop). Precondition: the ring
  /// is non-empty, e.g. FrontMutable() just returned non-null.
  /// Consumer-side.
  void PopFront() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    DCHECK(ConsumerSees(tail));
    slots_[tail & mask_] = T();
    tail_.store(tail + 1, std::memory_order_release);
  }

  /// Pops the front element into `out`. Returns false when empty.
  /// Consumer-side.
  bool PopInto(T* out) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (!ConsumerSees(tail)) return false;
    *out = std::move(slots_[tail & mask_]);
    slots_[tail & mask_] = T();
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side: number of elements known to be present, refreshing the
  /// cached producer index only when the cache reads empty. The count may
  /// understate the true size (the cache is stale) but never overstates
  /// it, so the consumer may pop exactly this many elements unchecked.
  size_t AvailableToConsumer() const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
    }
    return cached_head_ - tail;
  }

  /// Producer-side: true when a TryPush would fail right now. Exact for
  /// the producer — only the consumer frees space, so a not-full answer
  /// cannot be invalidated before the producer's next push. Callers use
  /// this to avoid TryPush's pass-by-value consuming an item on failure.
  bool FullApprox() const {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ <= mask_) return false;
    cached_tail_ = tail_.load(std::memory_order_acquire);
    return head - cached_tail_ > mask_;
  }

  /// Racy size estimate; exact when called from the producer or consumer
  /// while the other side is quiescent.
  size_t SizeApprox() const {
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  /// Consumer-side visibility check for slot `tail`, refreshing the cached
  /// producer index only when it claims the ring is empty. Elements below
  /// `cached_head_` were observed by an acquire load of head_, so their
  /// slots — and everything else the producer published before them, such
  /// as overflow spills — are visible without another cross-core read.
  bool ConsumerSees(size_t tail) const {
    if (tail != cached_head_) return true;
    cached_head_ = head_.load(std::memory_order_acquire);
    return tail != cached_head_;
  }

  std::vector<T> slots_;
  size_t mask_ = 0;
  // Producer-written / consumer-written indices on separate cache lines,
  // each paired with that side's private cache of the *other* side's
  // index. The caches turn the per-element cross-core acquire load into a
  // once-per-refill/once-per-drain event (see TryPush / ConsumerSees).
  alignas(64) std::atomic<size_t> head_{0};
  mutable size_t cached_tail_ = 0;
  alignas(64) std::atomic<size_t> tail_{0};
  mutable size_t cached_head_ = 0;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_UTIL_SPSC_RING_H_
