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
  Tuple copy(tuple);
  EnqueueRows(&copy, 1, tuple.is_barrier());
}

void QueueOp::Receive(Tuple&& tuple, int port) {
  (void)port;
  if (tuple.is_eos()) {
    EnqueueEos(tuple);
    return;
  }
  const bool is_barrier = tuple.is_barrier();
  EnqueueRows(&tuple, 1, is_barrier);
}

void QueueOp::ReceiveBatch(TupleBatch&& batch, int port) {
  (void)port;
  if (batch.empty()) return;
  EnqueueRows(&batch[0], batch.size(), /*is_barrier=*/false);
}

void QueueOp::ReceiveColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  if (batch == nullptr || batch->empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  if (max_elements_ != 0 || !batch_delivery()) {
    // Bounded: a bound may admit part of a batch, which a box cannot
    // carry. Per-tuple delivery: a boxed batch would only be unboxed again
    // at the drain. Either way, materialize onto the row-wise path.
    ReceiveBatch(columnar::MaterializeAndRelease(std::move(batch)), port);
    return;
  }
  EnqueueColumnar(std::move(batch));
}

template <typename Fill>
size_t QueueOp::PushLocked(size_t n, bool arrivals,
                           std::optional<OverloadPolicy> bound, Fill&& fill) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The bound's decision is taken under the queue lock, so racing
  // producers cannot overshoot the budget between check and push.
  size_t skip = 0;       // leading elements shed before they are appended
  size_t append = n;
  size_t shed_head = 0;  // queued items dropped from the head
  if (bound.has_value()) {
    const size_t free = FreeSpace();
    const size_t excess = n > free ? n - free : 0;
    if (*bound == OverloadPolicy::kShedOldest) {
      // The excess leaves from the head (a kShedOldest queue has no ring,
      // so the deque head is the queue head): older items first, then this
      // step's own first elements, which are never appended — exactly as
      // one element at a time would. A punctuation at the head stops it:
      // the rest overruns.
      while (shed_head < excess && !items_.empty() &&
             items_.front().tuple.is_data()) {
        items_.pop_front();
        ++shed_head;
      }
      if (items_.empty()) skip = excess - shed_head;
      append = n - skip;
      dropped_oldest_.fetch_add(static_cast<int64_t>(shed_head + skip),
                                std::memory_order_relaxed);
    } else {
      // kBlock (a ring-less queue after its wait) and kShedNewest admit
      // what fits; kShedNewest drops the rest.
      append = n - excess;
      if (excess > 0 && *bound == OverloadPolicy::kShedNewest) {
        dropped_newest_.fetch_add(static_cast<int64_t>(excess),
                                  std::memory_order_relaxed);
      }
    }
  }
  if (append + skip > 0 && arrivals && StatsCollectionEnabled()) {
    stats().RecordArrival(Now(), static_cast<int64_t>(append + skip));
  }
  const size_t before = items_.size();
  fill(g_arrival_seq.fetch_add(append, std::memory_order_relaxed), skip,
       append);
  const size_t pushed = items_.size() - before;
  // Every writer of both counters holds mutex_: plain stores need no
  // read-modify-write.
  deque_size_.store(items_.size(), std::memory_order_release);
  locked_pushes_.store(locked_pushes_.load(std::memory_order_relaxed) + pushed,
                       std::memory_order_relaxed);
  // The shed head items stay counted until the caller's count update
  // nets them out, so the count never dips below what is queued: at least
  // as many elements are appended as the head lost.
  return pushed - shed_head;
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
    // The box draws its n seqs and n arrivals but appends one item.
    PushLocked(n, /*arrivals=*/true, /*bound=*/std::nullopt,
               [&](uint64_t seq, size_t, size_t) {
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

void QueueOp::PushRun(Tuple* rows, size_t n, bool is_barrier) {
  size_t chunk = 0;
  if (ring_ != nullptr) {
    // One producer: the stats update and the ring's seq range need no
    // lock. One range allocation for the ring run instead of one atomic
    // RMW per element, claimed in push order, so the ring stays
    // sequence-ordered and any spilled suffix draws larger numbers below —
    // exactly what the consumer's seq-merge expects.
    if (!is_barrier && StatsCollectionEnabled()) {
      stats().RecordArrival(Now(), static_cast<int64_t>(n));
    }
    chunk = std::min(ring_->FreeForProducer(n), n);
    if (chunk > 0) {
      const uint64_t base =
          g_arrival_seq.fetch_add(chunk, std::memory_order_relaxed);
      // Bulk push: chunk slot writes, ONE head publish (vs one each).
      ring_->PushBulkUnchecked(chunk, [&](size_t i) {
        return Item{std::move(rows[i]), base + i};
      });
      // Single-writer counter (the one producer): load+store avoids the
      // read-modify-write lock prefix of fetch_add on the hot path.
      ring_pushes_.store(ring_pushes_.load(std::memory_order_relaxed) + chunk,
                         std::memory_order_relaxed);
      // Count the run before anything else is published: the consumer
      // may claim it at once, and a spill counted together with it would
      // then see a non-zero count on an empty queue and skip the wakeup.
      CountQueuedAndMaybeNotify(chunk, /*is_eos=*/false);
    }
  }
  if (chunk < n) {
    // Ring full or absent: the rest goes through one lock acquisition.
    PushLocked(n - chunk, /*arrivals=*/ring_ == nullptr && !is_barrier,
               /*bound=*/std::nullopt,
               [&](uint64_t base, size_t first, size_t count) {
                 for (size_t i = 0; i < count; ++i) {
                   items_.push_back(
                       {std::move(rows[chunk + first + i]), base + i});
                 }
               });
    CountQueuedAndMaybeNotify(n - chunk, /*is_eos=*/false);
  }
}

void QueueOp::EnqueueRows(Tuple* rows, size_t n, bool is_barrier) {
  DCHECK(!InputClosed()) << DebugString() << " data after close";
  if (is_barrier) {
    last_barrier_epoch_.store(rows[0].epoch(), std::memory_order_relaxed);
  }
  // Barriers bypass the bound entirely: never blocked, never shed.
  const bool bounded = max_elements_ != 0 && !is_barrier;
  size_t next = 0;
  while (next < n) {
    // One step admits as much of the rest as the bound allows at once:
    // one seq range, one ring publish, one queued-count bump and at most
    // one notification (two of each when the ring spills), however many
    // elements that is.
    size_t go = n - next;
    const OverloadPolicy policy =
        bounded ? overload_policy() : OverloadPolicy::kBlock;
    bool decided = !bounded;  // no shed or space decision left to take
    if (bounded && policy == OverloadPolicy::kBlock) {
      // kBlock waits *before* taking any lock, and only while nothing
      // fits; the wait ends on freed space, cancel, run failure, or
      // timeout (overrun) — never by dropping data.
      bool overrun = false;
      go = WaitForSpace(go, &overrun);
      if (go == 0) continue;  // the policy left kBlock: decide again
      // A single producer's granted space can only grow (only the
      // consumer changes the count), so the ring takes it unchecked; a
      // ring-less queue re-checks under the lock against racing producers.
      decided = overrun || ring_ != nullptr;
    }
    if (decided) {
      PushRun(rows + next, go, is_barrier);
      next += go;
      continue;
    }
    const size_t added =
        PushLocked(go, /*arrivals=*/true, policy,
                   [&](uint64_t base, size_t first, size_t count) {
                     for (size_t i = 0; i < count; ++i) {
                       items_.push_back(
                           {std::move(rows[next + first + i]), base + i});
                     }
                   });
    if (added > 0) CountQueuedAndMaybeNotify(added, /*is_eos=*/false);
    // Shedding settles every element of the step; kBlock only those
    // admitted (it sheds nothing, so `added` is what it admitted), and the
    // rest waits again.
    next += policy == OverloadPolicy::kBlock ? added : go;
  }
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
    // policy and their pending elements meet the new one.
    { std::lock_guard<std::mutex> lock(space_mutex_); }
    space_cv_.notify_all();
  }
  return Status::Ok();
}

size_t QueueOp::FreeSpace() const {
  const size_t size = Size();
  return size < max_elements_ ? max_elements_ - size : 0;
}

size_t QueueOp::WaitForSpace(size_t want, bool* overrun) {
  *overrun = false;
  if (const size_t free = FreeSpace(); free > 0) return std::min(free, want);
  *overrun = true;
  // A producer that *is* this queue's draining context must never park:
  // nobody else will ever free space (e.g. GTS, where the one worker
  // thread both fills and drains every queue). Every element overruns.
  if (owner_ != nullptr && owner_ == tl_drain_context) return want;
  if (waits_cancelled_.load(std::memory_order_acquire)) return want;
  RunStatus* rs = run_status();
  // Hand our level-3 execution slot (if any) to other partitions for the
  // duration of the park — the consumer that will free this space may be
  // waiting for exactly that slot.
  SlotYielder* const yielder = tl_slot_yielder;
  if (yielder != nullptr) yielder->ReleaseSlot();
  bool timed_out = false;
  {
    std::unique_lock<std::mutex> lock(space_mutex_);
    space_waiters_.fetch_add(1, std::memory_order_seq_cst);
    block_waits_.fetch_add(1, std::memory_order_relaxed);
    const TimePoint deadline = Now() + block_timeout_;
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
  // An expired wait lets through the one element it held; the rest waits
  // again. Cancelled or failed, every element would pass its wait at once.
  // A policy flip away from kBlock admits nothing here: the caller decides
  // the step again under the new policy.
  if (timed_out) return 1;
  *overrun = false;
  if (const size_t free = FreeSpace(); free > 0) return std::min(free, want);
  if (overload_policy() != OverloadPolicy::kBlock) return 0;
  *overrun = true;
  return want;
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
      PushLocked(1, /*arrivals=*/false, /*bound=*/std::nullopt,
                 [&](uint64_t seq, size_t, size_t) {
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
    // Wake blocked producers now, not after the run is emitted: emitting
    // may park this thread on a full queue downstream, and a producer
    // waiting on this one would then sit out its wait slice even though
    // the space is already free.
    NotifySpaceFreed();
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
