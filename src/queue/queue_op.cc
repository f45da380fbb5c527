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

/// Reusable drain staging: every locked drain path (and the SPSC batch
/// path) gathers its barrier-free run into a TupleBatch taken from here,
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

void QueueOp::EnqueueColumnar(ColumnarBatchPtr batch) {
  const size_t n = batch->size();
  const bool single = single_producer();
  if (StatsCollectionEnabled()) {
    stats().RecordArrivalBatch(Now(), static_cast<int64_t>(n));
  }
  // One boxed item carries the whole batch. It owns a contiguous run of n
  // arrival seqs — the head seq orders the box against neighboring
  // per-tuple items in the consumer's FIFO merge — and accounts for n rows
  // in queued_items_, so Size() and scheduling see the true backlog (the
  // drain paths subtract the full row count when they pop the box).
  if (single) {
    DCHECK(!InputClosed()) << DebugString() << " data after close";
    Item item;
    item.seq = g_arrival_seq.fetch_add(n, std::memory_order_relaxed);
    item.col = std::move(batch);
    PushItemSingleProducer(std::move(item));
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    DCHECK(!eos_enqueued_) << DebugString() << " data after close";
    // The seq range is drawn under the lock so the deque stays
    // sequence-ordered even when several producers race.
    Item item;
    item.seq = g_arrival_seq.fetch_add(n, std::memory_order_relaxed);
    item.col = std::move(batch);
    items_.push_back(std::move(item));
  }
  CountQueuedBatchAndMaybeNotify(n, single);
}

void QueueOp::EmitColumnarDrained(ColumnarBatchPtr col) {
  if (StatsCollectionEnabled()) {
    stats().RecordProcessedBatch(0.0, static_cast<int64_t>(col->size()));
  }
  EmitColumnar(std::move(col));
}

void QueueOp::EnqueueBatch(TupleBatch&& batch) {
  const size_t n = batch.size();
  const bool single = single_producer();
  if (StatsCollectionEnabled()) {
    stats().RecordArrivalBatch(Now(), static_cast<int64_t>(n));
  }
  if (single) {
    DCHECK(!InputClosed()) << DebugString() << " data after close";
    // One sequence-range allocation for the whole batch instead of one
    // atomic RMW per element. The range is claimed in push order, so both
    // the ring and any spillover stay individually sequence-ordered (as in
    // Enqueue), and the spilled suffix carries the larger numbers — exactly
    // what the consumer's seq-merge expects.
    const uint64_t base = g_arrival_seq.fetch_add(n, std::memory_order_relaxed);
    const size_t chunk = std::min(ring_->FreeForProducer(n), n);
    if (chunk > 0) {
      // Bulk push: n slot writes, ONE head publish (vs one per element).
      ring_->PushBulkUnchecked(chunk, [&](size_t i) {
        return Item{std::move(batch[i]), base + i};
      });
      ring_pushes_.store(ring_pushes_.load(std::memory_order_relaxed) + chunk,
                         std::memory_order_relaxed);
    }
    if (chunk < n) {
      // Ring full: spill the suffix under one lock acquisition.
      std::lock_guard<std::mutex> lock(mutex_);
      for (size_t i = chunk; i < n; ++i) {
        items_.push_back({std::move(batch[i]), base + i});
      }
      overflow_count_.fetch_add(n - chunk, std::memory_order_release);
      locked_pushes_.store(
          locked_pushes_.load(std::memory_order_relaxed) + (n - chunk),
          std::memory_order_relaxed);
    }
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    DCHECK(!eos_enqueued_) << DebugString() << " data after close";
    // The range is drawn under the lock, so the deque stays
    // sequence-ordered even when several producers race (as in Enqueue).
    const uint64_t base = g_arrival_seq.fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      items_.push_back({std::move(batch[i]), base + i});
    }
  }
  CountQueuedBatchAndMaybeNotify(n, single);
}

void QueueOp::Enqueue(Tuple&& tuple, bool is_barrier) {
  const bool single = single_producer();
  // Barriers bypass the bound entirely: never blocked, never shed.
  const bool bounded = max_elements_ != 0 && !is_barrier;
  if (is_barrier) {
    last_barrier_epoch_.store(tuple.epoch(), std::memory_order_relaxed);
  }
  // kBlock waits *before* taking any lock; the wait ends on freed space,
  // cancel, run failure, or timeout (overrun) — never by dropping data.
  if (bounded && overload_policy() == OverloadPolicy::kBlock) WaitForSpace();
  if (single) {
    // Shed-newest is exact here: one producer, so the Size() snapshot
    // cannot race another admit decision. (Shed-oldest never runs in SPSC
    // mode — SetBound forces the MPSC path for it.)
    if (bounded && overload_policy() == OverloadPolicy::kShedNewest &&
        Size() >= max_elements_) {
      dropped_newest_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    DCHECK(!InputClosed()) << DebugString() << " data after close";
    if (StatsCollectionEnabled() && !is_barrier) {
      stats().RecordArrival(Now());
    }
    // Single producer: sequence assignment and push happen in program
    // order, so both the ring and the spillover deque are individually
    // sequence-ordered and the consumer's merge stays correct.
    PushItemSingleProducer(
        {std::move(tuple),
         g_arrival_seq.fetch_add(1, std::memory_order_relaxed)});
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    DCHECK(!eos_enqueued_) << DebugString() << " data after close";
    if (bounded && Size() >= max_elements_) {
      // Shed decisions are taken under the queue lock, so racing MPSC
      // producers cannot overshoot the budget between check and push.
      const OverloadPolicy policy = overload_policy();
      if (policy == OverloadPolicy::kShedNewest) {
        dropped_newest_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (policy == OverloadPolicy::kShedOldest &&
          !items_.empty() && items_.front().tuple.is_data()) {
        // Make room by dropping the head; net queue size is unchanged, so
        // the queued count is pre-decremented to balance the increment in
        // CountQueuedAndMaybeNotify below.
        items_.pop_front();
        dropped_oldest_.fetch_add(1, std::memory_order_relaxed);
        queued_items_.fetch_sub(1, std::memory_order_acq_rel);
      }
      // kBlock reaches here only after a timed-out (overrun) or bypassed
      // wait: enqueue anyway — kBlock never drops.
    }
    if (StatsCollectionEnabled() && !is_barrier) {
      stats().RecordArrival(Now());
    }
    // The sequence number is drawn under the lock so the deque stays
    // sequence-ordered even when several producers race.
    items_.push_back({std::move(tuple),
                      g_arrival_seq.fetch_add(1, std::memory_order_relaxed)});
  }
  CountQueuedAndMaybeNotify(/*is_eos=*/false, single);
}

void QueueOp::SetBound(size_t max_elements, OverloadPolicy policy,
                       Duration block_timeout) {
  max_elements_ = max_elements;
  overload_policy_.store(policy, std::memory_order_release);
  block_timeout_ = block_timeout;
  if (max_elements != 0 && policy == OverloadPolicy::kShedOldest &&
      single_producer()) {
    // Only the consumer may pop the SPSC ring head, so shedding the
    // oldest element requires every item behind the mutex.
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
        "': kShedOldest changes the enqueue path (forces MPSC), which is "
        "only safe while quiescent; use SetBound before the run");
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
  bool push_outside_lock = false;
  Item eos_item;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    max_eos_timestamp_ = std::max(max_eos_timestamp_, tuple.timestamp());
    ++eos_received_;
    if (eos_received_ < fan_in() || eos_enqueued_) return;
    eos_enqueued_ = true;
    eos_queued_flag_.store(true, std::memory_order_release);
    input_closed_.store(true, std::memory_order_release);
    eos_item = {Tuple::EndOfStream(max_eos_timestamp_),
                g_arrival_seq.fetch_add(1, std::memory_order_relaxed)};
    if (single_producer()) {
      // The SPSC push may need to spill, which re-takes mutex_ — do it
      // after unlocking. Safe: the last producer just closed, so no other
      // enqueue can interleave.
      push_outside_lock = true;
    } else {
      items_.push_back(std::move(eos_item));
    }
  }
  if (push_outside_lock) PushItemSingleProducer(std::move(eos_item));
  CountQueuedAndMaybeNotify(/*is_eos=*/true, /*single=*/push_outside_lock);
}

void QueueOp::PushItemSingleProducer(Item&& item) {
  // FullApprox is producer-exact (only the consumer frees space), so a
  // not-full ring guarantees the push succeeds and the item is never lost.
  if (!ring_->FullApprox()) {
    ring_->PushUnchecked(std::move(item));
    // Single-writer counter (the one producer): load+store avoids the
    // read-modify-write lock prefix of fetch_add on the hot path.
    ring_pushes_.store(ring_pushes_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  items_.push_back(std::move(item));
  overflow_count_.fetch_add(1, std::memory_order_release);
  locked_pushes_.store(locked_pushes_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
}

void QueueOp::CountQueuedAndMaybeNotify(bool is_eos, bool single) {
  const size_t count =
      queued_items_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (!is_eos) {
    // `count` equals the data size here: data never follows the EOS item.
    if (single) {
      // The producer is the only peak writer in SPSC mode: a plain
      // read-compare-store replaces the CAS loop.
      if (count > peak_size_.load(std::memory_order_relaxed)) {
        peak_size_.store(count, std::memory_order_relaxed);
      }
    } else {
      size_t peak = peak_size_.load(std::memory_order_relaxed);
      while (peak < count && !peak_size_.compare_exchange_weak(
                                 peak, count, std::memory_order_relaxed)) {
      }
    }
  }
  // Coalesced wakeups: only the empty -> non-empty transition needs to wake
  // the consumer — everything enqueued while the queue is non-empty is
  // picked up by the drain loop the earlier notification started. EOS
  // always notifies so idle partitions learn about termination promptly.
  if (count == 1 || is_eos) NotifyListener();
}

void QueueOp::CountQueuedBatchAndMaybeNotify(size_t n, bool single) {
  const size_t count =
      queued_items_.fetch_add(n, std::memory_order_acq_rel) + n;
  if (single) {
    if (count > peak_size_.load(std::memory_order_relaxed)) {
      peak_size_.store(count, std::memory_order_relaxed);
    }
  } else {
    size_t peak = peak_size_.load(std::memory_order_relaxed);
    while (peak < count && !peak_size_.compare_exchange_weak(
                               peak, count, std::memory_order_relaxed)) {
    }
  }
  // Same coalescing as CountQueuedAndMaybeNotify: only the empty ->
  // non-empty transition (the add started from 0) wakes the consumer.
  if (count == n) NotifyListener();
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
  if (single_producer()) return DrainBatchSingleProducer(max_elements);

  // MPSC: one lock acquisition per barrier-free run. The run is drained
  // directly into a TupleBatch (stolen from a thread-local so repeated
  // drains reuse its capacity) and emitted outside the lock — per-tuple or
  // as one downstream ReceiveBatch, per batch_delivery(). Punctuations end
  // the run: the accumulated batch is flushed first, then the punctuation
  // travels the per-tuple path, so a batch never straddles a barrier or
  // EOS. Barriers are rare (one per checkpoint epoch), so the extra lock
  // acquisition per barrier is noise.
  size_t total_taken = 0;
  for (;;) {
    TupleBatch batch = StealDrainScratch();
    bool eos_taken = false;
    AppTime eos_ts = 0;
    bool barrier_taken = false;
    Tuple barrier;
    ColumnarBatchPtr col_taken;
    size_t taken = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      while (total_taken + taken < max_elements && !items_.empty()) {
        Item& front = items_.front();
        if (front.col != nullptr) [[unlikely]] {
          // Boxed columnar batch: it cannot join the row batch, so it ends
          // the run like a punctuation does — except it is data, emitted
          // (outside the lock) right after the accumulated prefix.
          col_taken = std::move(front.col);
          items_.pop_front();
          taken += col_taken->size();
          break;
        }
        if (front.tuple.is_eos()) {
          eos_taken = true;
          eos_ts = front.tuple.timestamp();
          items_.pop_front();
          break;
        }
        if (front.tuple.is_barrier()) [[unlikely]] {
          barrier_taken = true;
          barrier = std::move(front.tuple);
          items_.pop_front();
          ++taken;
          break;
        }
        batch.PushBack(std::move(front.tuple));
        items_.pop_front();
        ++taken;
      }
    }
    FinishDequeue(taken, eos_taken);
    total_taken += taken;
    if (test_fault() == TestFault::kReorderDrainBatch) [[unlikely]] {
      std::reverse(batch.begin(), batch.end());
    }
    EmitDrainedBatch(&batch);
    RestoreDrainScratch(std::move(batch));
    if (col_taken != nullptr) {
      EmitColumnarDrained(std::move(col_taken));
      if (total_taken < max_elements) continue;
    }
    if (barrier_taken) {
      EmitBarrier(barrier);
      if (total_taken < max_elements) continue;
    }
    if (eos_taken) EmitEos(eos_ts);
    return total_taken;
  }
}

void QueueOp::EmitDrainedBatch(TupleBatch* batch) {
  if (batch->empty()) return;
  if (batch_delivery()) {
    if (StatsCollectionEnabled()) {
      stats().RecordProcessedBatch(0.0, static_cast<int64_t>(batch->size()));
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

size_t QueueOp::DrainBatchSingleProducer(size_t max_elements) {
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
    // BEFORE checking the spillover count. Synchronizing with the head
    // store makes every spill that preceded the observed ring contents
    // visible; any spill we still cannot see was produced after all of
    // them and thus carries a larger sequence number, so draining the
    // observed run lock-free is order-safe when the spillover reads empty.
    const size_t avail = ring_->AvailableToConsumer();
    if (overflow_count_.load(std::memory_order_acquire) != 0) {
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
      size_t consumed = 0;
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
          ++consumed;
          taken += rows;
          continue;
        }
        if (front->tuple.is_eos()) {
          DCHECK(i + 1 == run);  // nothing is ever enqueued after EOS
          eos_taken = true;
          eos_ts = front->tuple.timestamp();
          eos_forwarded_.store(true, std::memory_order_release);
          ++consumed;
          break;
        }
        if (front->tuple.is_barrier()) [[unlikely]] {
          EmitDrainedBatch(&batch);
          EmitBarrier(front->tuple);
          ++consumed;
          ++taken;
          continue;
        }
        batch.PushBack(std::move(front->tuple));
        ++consumed;
        ++taken;
      }
      ring_->PopFrontBulk(consumed);
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
      if (front->tuple.is_eos()) {
        DCHECK(run == 1);  // nothing is ever enqueued after EOS
        eos_taken = true;
        eos_ts = front->tuple.timestamp();
        eos_forwarded_.store(true, std::memory_order_release);
        ring_->PopFront();
        break;
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
      // staging, two moves per element fewer than the locked paths.
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

size_t QueueOp::DrainMergeLocked(size_t max_elements, bool* eos_taken,
                                 AppTime* eos_ts) {
  // Spillover present: merge ring and deque by sequence number under the
  // lock until the spillover is drained, gathering directly into a
  // TupleBatch and emitting outside the lock (same stealing discipline as
  // the MPSC path). A punctuation ends the merge run — the caller's drain
  // loop re-enters while spillover remains.
  TupleBatch batch = StealDrainScratch();
  bool barrier_taken = false;
  Tuple barrier;
  ColumnarBatchPtr col_taken;
  size_t taken = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (taken < max_elements && !items_.empty()) {
      const Item* rf = ring_->Front();
      Item item;
      if (rf != nullptr && rf->seq < items_.front().seq) {
        const bool popped = ring_->PopInto(&item);
        DCHECK(popped);
      } else {
        item = std::move(items_.front());
        items_.pop_front();
        overflow_count_.fetch_sub(1, std::memory_order_release);
      }
      if (item.col != nullptr) [[unlikely]] {
        // Boxed columnar batch: ends the merge run like a punctuation
        // (it cannot join the row batch), emitted after the prefix below.
        col_taken = std::move(item.col);
        taken += col_taken->size();
        break;
      }
      if (item.tuple.is_eos()) {
        *eos_taken = true;
        *eos_ts = item.tuple.timestamp();
        break;
      }
      if (item.tuple.is_barrier()) [[unlikely]] {
        barrier_taken = true;
        barrier = std::move(item.tuple);
        ++taken;
        break;
      }
      batch.PushBack(std::move(item.tuple));
      ++taken;
    }
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
  if (single_producer()) {
    uint64_t best = kNoSeq;
    if (const Item* front = ring_->Front()) best = front->seq;
    if (overflow_count_.load(std::memory_order_acquire) != 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!items_.empty()) best = std::min(best, items_.front().seq);
    }
    return best;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.empty() ? kNoSeq : items_.front().seq;
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
  if (single_producer && ring_ == nullptr) {
    ring_ = std::make_unique<SpscRing<Item>>(ring_capacity_);
  }
  single_producer_.store(single_producer, std::memory_order_release);
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
  overflow_count_.store(0, std::memory_order_relaxed);
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
