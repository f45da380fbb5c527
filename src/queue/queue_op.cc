#include "queue/queue_op.h"

#include <algorithm>
#include <utility>

#include "tuple/batch_pool.h"
#include "util/logging.h"

namespace flexstream {
namespace {

/// Global arrival counter shared by all queues: gives FIFO scheduling a
/// total order over elements across queues (Section 6.6's FIFO strategy).
std::atomic<uint64_t> g_arrival_seq{0};

/// The draining context (partition) the current thread runs, if any. Set
/// by Partition::RunLoop; used for the kBlock self-deadlock bypass.
thread_local const void* tl_drain_context = nullptr;

/// Reusable drain staging: the locked drain (and the ring's batch path)
/// gathers its barrier-free run into a TupleBatch taken from here,
/// so repeated drains reuse the vector's capacity. The scratch is *stolen*
/// (moved out, restored after) rather than referenced in place, so a
/// re-entrant drain — a downstream operator draining another queue inside
/// Emit — cannot clobber an outer drain's batch.
thread_local TupleBatch tl_drain_scratch;

TupleBatch StealDrainScratch() {
  TupleBatch batch = std::move(tl_drain_scratch);
  batch.clear();
  return batch;
}

void RestoreDrainScratch(TupleBatch&& batch) {
  batch.clear();
  tl_drain_scratch = std::move(batch);
}

}  // namespace

uint64_t AllocateArrivalSeq(uint64_t n) {
  return g_arrival_seq.fetch_add(n, std::memory_order_relaxed);
}

const char* OverloadPolicyToString(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShedNewest:
      return "shed-newest";
    case OverloadPolicy::kShedOldest:
      return "shed-oldest";
  }
  return "unknown";
}

bool OverloadPolicyFromString(const std::string& name,
                              OverloadPolicy* policy) {
  for (OverloadPolicy candidate :
       {OverloadPolicy::kBlock, OverloadPolicy::kShedNewest,
        OverloadPolicy::kShedOldest}) {
    if (name == OverloadPolicyToString(candidate)) {
      *policy = candidate;
      return true;
    }
  }
  return false;
}

namespace {
thread_local QueueOp::SlotYielder* tl_slot_yielder = nullptr;
}  // namespace

void QueueOp::SetCurrentSlotYielder(SlotYielder* yielder) {
  tl_slot_yielder = yielder;
}

QueueOp::SlotYielder* QueueOp::CurrentSlotYielder() { return tl_slot_yielder; }

void QueueOp::SetCurrentDrainContext(const void* context) {
  tl_drain_context = context;
}

const void* QueueOp::CurrentDrainContext() { return tl_drain_context; }

QueueOp::QueueOp(std::string name, size_t ring_capacity)
    : Operator(Kind::kQueue, std::move(name), kVariadicArity),
      ring_capacity_(ring_capacity) {}

void QueueOp::Receive(const Tuple& tuple, int port) {
  (void)port;
  if (tuple.is_eos()) {
    EnqueueEos(tuple);
    return;
  }
  Enqueue(Tuple(tuple), tuple.is_barrier());
}

void QueueOp::Receive(Tuple&& tuple, int port) {
  (void)port;
  if (tuple.is_eos()) {
    EnqueueEos(tuple);
    return;
  }
  const bool is_barrier = tuple.is_barrier();
  Enqueue(std::move(tuple), is_barrier);
}

void QueueOp::ReceiveBatch(TupleBatch&& batch, int port) {
  (void)port;
  if (batch.empty()) return;
  if (max_elements_ != 0) {
    // Bounded: every admit/shed/block decision (and its drop counters)
    // must see one element at a time — unbundle onto the per-tuple path.
    for (Tuple& tuple : batch) Enqueue(std::move(tuple));
    return;
  }
  EnqueueBatch(std::move(batch));
}

void QueueOp::ReceiveColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  if (batch == nullptr || batch->empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  if (max_elements_ != 0 || !batch_delivery()) {
    // Bounded: every admit/shed/block decision must see one element at a
    // time. Per-tuple delivery: a boxed batch would only be unboxed again
    // at the drain. Either way, materialize onto the row-wise path.
    ReceiveBatch(columnar::MaterializeAndRelease(std::move(batch)), port);
    return;
  }
  EnqueueColumnar(std::move(batch));
}

template <typename Fill>
size_t QueueOp::PushLocked(size_t seqs, int64_t arrivals, bool bounded,
                           Fill&& fill) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (bounded && Size() >= max_elements_) {
    // Shed decisions are taken under the queue lock, so racing producers
    // cannot overshoot the budget between check and push.
    const OverloadPolicy policy = overload_policy();
    if (policy == OverloadPolicy::kShedNewest) {
      dropped_newest_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    if (policy == OverloadPolicy::kShedOldest && !items_.empty() &&
        items_.front().tuple.is_data()) {
      // Make room by dropping the head (a kShedOldest queue has no ring,
      // so the deque head is the queue head). Net size is unchanged, so
      // the queued count is pre-decremented to balance the caller's
      // CountQueuedAndMaybeNotify.
      items_.pop_front();
      dropped_oldest_.fetch_add(1, std::memory_order_relaxed);
      queued_items_.fetch_sub(1, std::memory_order_acq_rel);
    }
    // kBlock reaches here only after a timed-out (overrun) or bypassed
    // wait: enqueue anyway — kBlock never drops.
  }
  if (arrivals > 0 && StatsCollectionEnabled()) {
    stats().RecordArrival(Now(), arrivals);
  }
  const size_t before = items_.size();
  fill(g_arrival_seq.fetch_add(seqs, std::memory_order_relaxed));
  const size_t pushed = items_.size() - before;
  // Every writer of both counters holds mutex_: plain stores need no
  // read-modify-write.
  deque_size_.store(items_.size(), std::memory_order_release);
  locked_pushes_.store(locked_pushes_.load(std::memory_order_relaxed) + pushed,
                       std::memory_order_relaxed);
  return pushed;
}

void QueueOp::EnqueueColumnar(ColumnarBatchPtr batch) {
  DCHECK(!InputClosed()) << DebugString() << " data after close";
  const size_t n = batch->size();
  // One boxed item carries the whole batch. It owns a contiguous run of n
  // arrival seqs — the head seq orders the box against neighboring
  // per-tuple items in the consumer's FIFO merge — and accounts for n rows
  // in queued_items_, so Size() and scheduling see the true backlog (the
  // drain paths subtract the full row count when they pop the box).
  Item item;
  item.col = std::move(batch);
  if (ring_ != nullptr && !ring_->FullApprox()) {
    if (StatsCollectionEnabled()) {
      stats().RecordArrival(Now(), static_cast<int64_t>(n));
    }
    item.seq = g_arrival_seq.fetch_add(n, std::memory_order_relaxed);
    ring_->PushUnchecked(std::move(item));
    ring_pushes_.store(ring_pushes_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  } else {
    PushLocked(n, static_cast<int64_t>(n), /*bounded=*/false,
               [&](uint64_t seq) {
                 item.seq = seq;
                 items_.push_back(std::move(item));
               });
  }
  CountQueuedAndMaybeNotify(n, /*is_eos=*/false);
}

void QueueOp::EmitColumnarDrained(ColumnarBatchPtr col) {
  if (StatsCollectionEnabled()) {
    stats().RecordProcessed(0.0, static_cast<int64_t>(col->size()));
  }
  EmitColumnar(std::move(col));
}

void QueueOp::EnqueueBatch(TupleBatch&& batch) {
  DCHECK(!InputClosed()) << DebugString() << " data after close";
  const size_t n = batch.size();
  size_t chunk = 0;
  if (ring_ != nullptr) {
    // One producer: the stats update and the ring's seq range need no
    // lock. One range allocation for the ring run instead of one atomic
    // RMW per element, claimed in push order, so the ring stays
    // sequence-ordered and any spilled suffix draws larger numbers below —
    // exactly what the consumer's seq-merge expects.
    if (StatsCollectionEnabled()) {
      stats().RecordArrival(Now(), static_cast<int64_t>(n));
    }
    chunk = std::min(ring_->FreeForProducer(n), n);
    if (chunk > 0) {
      const uint64_t base =
          g_arrival_seq.fetch_add(chunk, std::memory_order_relaxed);
      // Bulk push: chunk slot writes, ONE head publish (vs one each).
      ring_->PushBulkUnchecked(chunk, [&](size_t i) {
        return Item{std::move(batch[i]), base + i};
      });
      ring_pushes_.store(ring_pushes_.load(std::memory_order_relaxed) + chunk,
                         std::memory_order_relaxed);
    }
  }
  if (chunk < n) {
    // Ring full or absent: the rest goes through one lock acquisition.
    PushLocked(n - chunk, ring_ != nullptr ? 0 : static_cast<int64_t>(n),
               /*bounded=*/false, [&](uint64_t base) {
                 for (size_t i = chunk; i < n; ++i) {
                   items_.push_back({std::move(batch[i]), base + (i - chunk)});
                 }
               });
  }
  CountQueuedAndMaybeNotify(n, /*is_eos=*/false);
}

void QueueOp::Enqueue(Tuple&& tuple, bool is_barrier) {
  // Barriers bypass the bound entirely: never blocked, never shed.
  const bool bounded = max_elements_ != 0 && !is_barrier;
  if (is_barrier) {
    last_barrier_epoch_.store(tuple.epoch(), std::memory_order_relaxed);
  }
  // kBlock waits *before* taking any lock; the wait ends on freed space,
  // cancel, run failure, or timeout (overrun) — never by dropping data.
  if (bounded && overload_policy() == OverloadPolicy::kBlock) WaitForSpace();
  DCHECK(!InputClosed()) << DebugString() << " data after close";
  // The ring only takes pushes the bound cannot shed: a shedding bound's
  // decision is PushLocked's, taken under the lock.
  if (ring_ != nullptr &&
      !(bounded && overload_policy() != OverloadPolicy::kBlock) &&
      !ring_->FullApprox()) {
    if (StatsCollectionEnabled() && !is_barrier) stats().RecordArrival(Now());
    // FullApprox is producer-exact (only the consumer frees space), so the
    // push cannot fail. One producer: sequence assignment and push happen
    // in program order, so the ring stays sequence-ordered.
    ring_->PushUnchecked(
        {std::move(tuple),
         g_arrival_seq.fetch_add(1, std::memory_order_relaxed)});
    // Single-writer counter (the one producer): load+store avoids the
    // read-modify-write lock prefix of fetch_add on the hot path.
    ring_pushes_.store(ring_pushes_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  } else if (PushLocked(1, is_barrier ? 0 : 1, bounded, [&](uint64_t seq) {
               items_.push_back({std::move(tuple), seq});
             }) == 0) {
    return;  // shed
  }
  CountQueuedAndMaybeNotify(1, /*is_eos=*/false);
}

void QueueOp::SetBound(size_t max_elements, OverloadPolicy policy,
                       Duration block_timeout) {
  max_elements_ = max_elements;
  overload_policy_.store(policy, std::memory_order_release);
  block_timeout_ = block_timeout;
  if (max_elements != 0 && policy == OverloadPolicy::kShedOldest &&
      ring_ != nullptr) {
    // Only the consumer may pop the ring head, so shedding the oldest
    // element requires every item in the locked deque.
    SetSingleProducer(false);
  }
}

Status QueueOp::SetOverloadPolicyLive(OverloadPolicy policy) {
  if (max_elements_ == 0) {
    return Status::FailedPrecondition(
        "SetOverloadPolicyLive refused on '" + name() +
        "': queue is unbounded (no overload decisions to govern); "
        "configure a bound via SetBound/EngineOptions::queue_max_elements");
  }
  if (policy == OverloadPolicy::kShedOldest ||
      overload_policy() == OverloadPolicy::kShedOldest) {
    return Status::InvalidArgument(
        "SetOverloadPolicyLive refused on '" + name() +
        "': kShedOldest changes the enqueue path (drops the ring), which "
        "is only safe while quiescent; use SetBound before the run");
  }
  overload_policy_.store(policy, std::memory_order_release);
  if (policy != OverloadPolicy::kBlock) {
    // Wake parked kBlock producers; their wait predicate re-checks the
    // policy and they enqueue the in-flight element (bounded overrun).
    { std::lock_guard<std::mutex> lock(space_mutex_); }
    space_cv_.notify_all();
  }
  return Status::Ok();
}

void QueueOp::WaitForSpace() {
  // A producer that *is* this queue's draining context must never park:
  // nobody else will ever free space (e.g. GTS, where the one worker
  // thread both fills and drains every queue). Overrun instead.
  if (owner_ != nullptr && owner_ == tl_drain_context) return;
  if (Size() < max_elements_) return;
  if (waits_cancelled_.load(std::memory_order_acquire)) return;
  RunStatus* rs = run_status();
  // Hand our level-3 execution slot (if any) to other partitions for the
  // duration of the park — the consumer that will free this space may be
  // waiting for exactly that slot.
  SlotYielder* const yielder = tl_slot_yielder;
  if (yielder != nullptr) yielder->ReleaseSlot();
  {
    std::unique_lock<std::mutex> lock(space_mutex_);
    space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    block_waits_.fetch_add(1, std::memory_order_relaxed);
    const TimePoint deadline = Now() + block_timeout_;
    bool timed_out = false;
    while (Size() >= max_elements_ &&
           overload_policy() == OverloadPolicy::kBlock &&
           !waits_cancelled_.load(std::memory_order_acquire) &&
           !(rs != nullptr && rs->failed())) {
      const TimePoint now = Now();
      if (now >= deadline) {
        timed_out = true;
        break;
      }
      // Sliced waits bound the reaction time to cancel/failure signals (and
      // to the rare drain whose space_waiters_ read raced this park) even
      // when no space_cv_ notification arrives.
      const Duration slice =
          std::min<Duration>(deadline - now, std::chrono::milliseconds(50));
      space_cv_.wait_for(lock, slice);
    }
    if (timed_out) block_timeouts_.fetch_add(1, std::memory_order_relaxed);
    space_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  if (yielder != nullptr) yielder->ReacquireSlot();
}

void QueueOp::NotifySpaceFreed() {
  if (max_elements_ == 0 || overload_policy() != OverloadPolicy::kBlock) {
    return;
  }
  if (space_waiters_.load(std::memory_order_seq_cst) == 0) return;
  // Empty critical section: a waiter is either already parked (the notify
  // reaches it) or still holds space_mutex_ pre-check (it will observe the
  // freed space in its predicate).
  { std::lock_guard<std::mutex> lock(space_mutex_); }
  space_cv_.notify_all();
}

void QueueOp::CancelProducerWaits() {
  waits_cancelled_.store(true, std::memory_order_release);
  { std::lock_guard<std::mutex> lock(space_mutex_); }
  space_cv_.notify_all();
}

void QueueOp::EnqueueEos(const Tuple& tuple) {
  // The close bookkeeping runs inside the locked push, so it and the EOS
  // append share one lock acquisition. A close that is not the last one
  // appends nothing (its drawn seq is simply unused).
  const size_t pushed =
      PushLocked(1, /*arrivals=*/0, /*bounded=*/false, [&](uint64_t seq) {
        max_eos_timestamp_ = std::max(max_eos_timestamp_, tuple.timestamp());
        ++eos_received_;
        if (eos_received_ < fan_in() || eos_enqueued_) return;
        eos_enqueued_ = true;
        eos_queued_flag_.store(true, std::memory_order_release);
        input_closed_.store(true, std::memory_order_release);
        items_.push_back({Tuple::EndOfStream(max_eos_timestamp_), seq});
      });
  if (pushed != 0) CountQueuedAndMaybeNotify(1, /*is_eos=*/true);
}

void QueueOp::CountQueuedAndMaybeNotify(size_t n, bool is_eos) {
  const size_t count =
      queued_items_.fetch_add(n, std::memory_order_acq_rel) + n;
  // `count` equals the data size here: data never follows the EOS item.
  if (!is_eos && count > peak_size_.load(std::memory_order_relaxed)) {
    if (ring_ != nullptr) {
      // A ring means one producer, the only peak writer: a plain store
      // replaces the CAS loop.
      peak_size_.store(count, std::memory_order_relaxed);
    } else {
      size_t peak = peak_size_.load(std::memory_order_relaxed);
      while (peak < count && !peak_size_.compare_exchange_weak(
                                 peak, count, std::memory_order_relaxed)) {
      }
    }
  }
  // Coalesced wakeups: only the empty -> non-empty transition (the add
  // started from 0) needs to wake the consumer — everything enqueued while
  // the queue is non-empty is picked up by the drain loop the earlier
  // notification started. EOS always notifies so idle partitions learn
  // about termination promptly.
  if (count == n || is_eos) NotifyListener();
}

void QueueOp::NotifyListener() {
  std::shared_ptr<const std::function<void()>> listener;
  std::shared_ptr<const std::function<bool()>> suppressor;
  {
    std::lock_guard<std::mutex> lock(listener_mutex_);
    listener = listener_;
    suppressor = wakeup_suppressor_;
  }
  // Chaos hook: a suppressor returning true swallows this wakeup (lost
  // notification). Recovery relies on the consumer's idle-poll failsafe.
  if (suppressor != nullptr && (*suppressor)()) return;
  if (listener != nullptr) {
    notifications_.fetch_add(1, std::memory_order_relaxed);
    (*listener)();
  }
}

size_t QueueOp::DrainBatch(size_t max_elements) {
  size_t taken = 0;
  bool eos_taken = false;
  AppTime eos_ts = 0;
  // Hot-path specialization: a decoupling queue almost always has exactly
  // one subscriber, so hoist the fan-out dispatch (and the stats check)
  // out of the per-element loop. Sampling the stats toggle once per batch
  // is fine — it is a test/bench switch, not runtime state.
  Operator* direct = nullptr;
  int direct_port = 0;
  if (outputs().size() == 1 && !StatsCollectionEnabled()) {
    direct = outputs()[0].target;
    direct_port = outputs()[0].port;
  }
  while (taken < max_elements && !eos_taken) {
    // Order matters: observe the available ring contents (an acquire load
    // of the producer's head index, possibly cached from an earlier one)
    // BEFORE checking the deque count. Synchronizing with the head store
    // makes every spill that preceded the observed ring contents visible;
    // any spill we still cannot see was produced after all of them and
    // thus carries a larger sequence number, so draining the observed run
    // lock-free is order-safe when the deque reads empty. EOS always
    // travels the deque, so the ring holds only data, barriers and boxes.
    const size_t avail = ring_ != nullptr ? ring_->AvailableToConsumer() : 0;
    if (deque_size_.load(std::memory_order_acquire) != 0) {
      taken += DrainMergeLocked(max_elements - taken, &eos_taken, &eos_ts);
      continue;
    }
    if (avail == 0) break;
    size_t run = std::min(avail, max_elements - taken);
    // Claim the whole run up front: the acq_rel RMW on queued_items_ is
    // what the coalesced-wakeup protocol orders against (see
    // CountQueuedAndMaybeNotify), and it must precede the empty check that
    // ends this drain. Size() undercounting the claimed-but-unemitted
    // items is fine — only this consumer thread acts on the difference.
    queued_items_.fetch_sub(run, std::memory_order_acq_rel);
    if (batch_delivery()) {
      // Batch delivery: move the claimed run out of the ring into a
      // TupleBatch and hand it downstream as one ReceiveBatch call.
      // Punctuations split the run — the accumulated prefix is flushed
      // before the punctuation travels the per-tuple path. The run's slots
      // are peeked in place and released with ONE tail publish at the end
      // (vs one per element); the producer cannot rewrite any of them
      // until that publish, and holding them marginally longer only delays
      // space reuse on an unbounded queue.
      TupleBatch batch = StealDrainScratch();
      batch.reserve(run);
      for (size_t i = 0; i < run; ++i) {
        Item* front = ring_->AtFromFront(i);
        if (front->col != nullptr) {
          // Boxed columnar batch: flush the accumulated row prefix, then
          // hand the box downstream whole. The box accounted for its row
          // count in queued_items_ but occupies one ring slot — the claim
          // above subtracted 1 for it, so settle the remainder here.
          ColumnarBatchPtr col = std::move(front->col);
          const size_t rows = col->size();
          queued_items_.fetch_sub(rows - 1, std::memory_order_acq_rel);
          EmitDrainedBatch(&batch);
          EmitColumnarDrained(std::move(col));
          taken += rows;
          continue;
        }
        if (front->tuple.is_barrier()) [[unlikely]] {
          EmitDrainedBatch(&batch);
          EmitBarrier(front->tuple);
          ++taken;
          continue;
        }
        batch.PushBack(std::move(front->tuple));
        ++taken;
      }
      ring_->PopFrontBulk(run);
      EmitDrainedBatch(&batch);
      RestoreDrainScratch(std::move(batch));
      continue;
    }
    for (; run > 0; --run) {
      Item* front = ring_->FrontMutable();
      DCHECK(front != nullptr);  // single consumer: observed elements stay
      if (front->col != nullptr) [[unlikely]] {
        // A boxed batch left over from before a live batch-delivery
        // downgrade: deliver it whole (delivery granularity is free to
        // differ), settling the rows-vs-slot claim as above.
        ColumnarBatchPtr col = std::move(front->col);
        const size_t rows = col->size();
        queued_items_.fetch_sub(rows - 1, std::memory_order_acq_rel);
        ring_->PopFront();
        EmitColumnarDrained(std::move(col));
        taken += rows;
        continue;
      }
      if (front->tuple.is_barrier()) [[unlikely]] {
        EmitBarrier(front->tuple);
        ring_->PopFront();
        ++taken;
        continue;
      }
      // No lock is held on this path, so emit straight out of the ring
      // slot — the producer cannot rewrite it until PopFront advances the
      // tail, and downstream adopts the payload in place. No scratch
      // staging, two moves per element fewer than the locked path.
      if (direct != nullptr) {
        SetDeliverySender(this);
        direct->Receive(std::move(front->tuple), direct_port);
      } else {
        if (StatsCollectionEnabled()) stats().RecordProcessed(0.0);
        EmitMove(std::move(front->tuple));
      }
      ring_->PopFront();
      ++taken;
    }
  }
  // The lock-free ring path above frees space without going through
  // FinishDequeue, so wake blocked producers here.
  if (taken > 0 || eos_taken) NotifySpaceFreed();
  if (eos_taken) EmitEos(eos_ts);
  return taken;
}

void QueueOp::EmitDrainedBatch(TupleBatch* batch) {
  if (batch->empty()) return;
  if (batch_delivery()) {
    if (StatsCollectionEnabled()) {
      stats().RecordProcessed(0.0, static_cast<int64_t>(batch->size()));
    }
    EmitBatch(std::move(*batch));
    batch->clear();  // normalize the moved-from state
    return;
  }
  for (Tuple& tuple : *batch) {
    if (StatsCollectionEnabled()) stats().RecordProcessed(0.0);
    EmitMove(std::move(tuple));
  }
  batch->clear();
}

size_t QueueOp::DrainMergeLocked(size_t max_elements, bool* eos_taken,
                                 AppTime* eos_ts) {
  // The deque is non-empty: merge it with the ring (if any) by sequence
  // number under the lock until it is drained, gathering directly into a
  // TupleBatch (stolen from a thread-local so repeated drains reuse its
  // capacity) and emitting outside the lock — per-tuple or as one
  // downstream ReceiveBatch, per batch_delivery(). A punctuation or a
  // boxed batch ends the merge run, so a batch never straddles a barrier
  // or EOS; the caller's drain loop re-enters while the deque is
  // non-empty. Barriers are rare (one per checkpoint epoch), so the extra
  // lock acquisition per barrier is noise.
  SpscRing<Item>* const ring = ring_.get();
  TupleBatch batch = StealDrainScratch();
  bool barrier_taken = false;
  Tuple barrier;
  ColumnarBatchPtr col_taken;
  size_t taken = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (taken < max_elements && !items_.empty()) {
      Item* const rf = ring != nullptr ? ring->FrontMutable() : nullptr;
      const bool from_ring = rf != nullptr && rf->seq < items_.front().seq;
      Item& item = from_ring ? *rf : items_.front();
      bool stop = true;  // a punctuation or boxed batch ends the run
      if (item.col != nullptr) [[unlikely]] {
        // Boxed columnar batch: it cannot join the row batch, so it is
        // emitted (outside the lock) right after the accumulated prefix.
        col_taken = std::move(item.col);
        taken += col_taken->size();
      } else if (item.tuple.is_eos()) {
        *eos_taken = true;
        *eos_ts = item.tuple.timestamp();
      } else if (item.tuple.is_barrier()) [[unlikely]] {
        barrier_taken = true;
        barrier = std::move(item.tuple);
        ++taken;
      } else {
        batch.PushBack(std::move(item.tuple));
        ++taken;
        stop = false;
      }
      if (from_ring) {
        ring->PopFront();
      } else {
        items_.pop_front();
      }
      if (stop) break;
    }
    // One deque-size publish per run, not one atomic RMW per element.
    deque_size_.store(items_.size(), std::memory_order_release);
  }
  FinishDequeue(taken, *eos_taken);

  if (test_fault() == TestFault::kReorderDrainBatch) [[unlikely]] {
    std::reverse(batch.begin(), batch.end());
  }
  EmitDrainedBatch(&batch);
  RestoreDrainScratch(std::move(batch));
  if (col_taken != nullptr) EmitColumnarDrained(std::move(col_taken));
  if (barrier_taken) EmitBarrier(barrier);
  return taken;
}

void QueueOp::FinishDequeue(size_t taken, bool eos_taken) {
  const size_t dequeued = taken + (eos_taken ? 1 : 0);
  if (dequeued > 0) {
    queued_items_.fetch_sub(dequeued, std::memory_order_acq_rel);
    NotifySpaceFreed();
  }
  if (eos_taken) eos_forwarded_.store(true, std::memory_order_release);
}

uint64_t QueueOp::HeadSeq() const {
  uint64_t best = kNoSeq;
  if (ring_ != nullptr) {
    if (const Item* front = ring_->Front()) best = front->seq;
  }
  if (deque_size_.load(std::memory_order_acquire) != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!items_.empty()) best = std::min(best, items_.front().seq);
  }
  return best;
}

void QueueOp::SetEnqueueListener(std::function<void()> listener) {
  std::shared_ptr<const std::function<void()>> ptr;
  if (listener) {
    ptr = std::make_shared<const std::function<void()>>(std::move(listener));
  }
  std::lock_guard<std::mutex> lock(listener_mutex_);
  listener_ = std::move(ptr);
}

void QueueOp::SetWakeupSuppressor(std::function<bool()> suppressor) {
  std::shared_ptr<const std::function<bool()>> ptr;
  if (suppressor) {
    ptr = std::make_shared<const std::function<bool()>>(
        std::move(suppressor));
  }
  std::lock_guard<std::mutex> lock(listener_mutex_);
  wakeup_suppressor_ = std::move(ptr);
}

void QueueOp::SetSingleProducer(bool single_producer) {
  std::lock_guard<std::mutex> lock(mutex_);
  DCHECK(queued_items_.load(std::memory_order_relaxed) == 0)
      << DebugString() << " enqueue-path switch on a non-empty queue";
  if (!single_producer || ring_capacity_ == 0) {
    ring_.reset();
  } else if (ring_ == nullptr) {
    ring_ = std::make_unique<SpscRing<Item>>(ring_capacity_);
  }
}

void QueueOp::Reset() {
  Operator::Reset();
  std::lock_guard<std::mutex> lock(mutex_);
  items_.clear();
  if (ring_ != nullptr) {
    while (ring_->TryPop().has_value()) {
    }
  }
  queued_items_.store(0, std::memory_order_relaxed);
  eos_queued_flag_.store(false, std::memory_order_relaxed);
  deque_size_.store(0, std::memory_order_relaxed);
  peak_size_.store(0, std::memory_order_relaxed);
  input_closed_.store(false, std::memory_order_relaxed);
  eos_forwarded_.store(false, std::memory_order_relaxed);
  ring_pushes_.store(0, std::memory_order_relaxed);
  locked_pushes_.store(0, std::memory_order_relaxed);
  notifications_.store(0, std::memory_order_relaxed);
  // Drop/wait counters are run state; the bound itself is configuration
  // and survives Reset.
  dropped_newest_.store(0, std::memory_order_relaxed);
  dropped_oldest_.store(0, std::memory_order_relaxed);
  block_waits_.store(0, std::memory_order_relaxed);
  block_timeouts_.store(0, std::memory_order_relaxed);
  last_barrier_epoch_.store(0, std::memory_order_relaxed);
  waits_cancelled_.store(false, std::memory_order_relaxed);
  eos_received_ = 0;
  eos_enqueued_ = false;
  max_eos_timestamp_ = 0;
}

void QueueOp::Process(const Tuple& tuple, int port) {
  (void)tuple;
  (void)port;
  LOG(FATAL) << "QueueOp::Process must never be called";
}

}  // namespace flexstream
