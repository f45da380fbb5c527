// The decoupling queue, modeled as an operator (Section 2.4: "we have
// modeled queues as separate operators. ... queues do not have an impact on
// the semantics, but are only introduced for performance reasons").
//
// A QueueOp is the only legal cross-thread boundary in a query graph:
//  * Receive() is thread-safe and may be called by any number of upstream
//    producers (it enqueues).
//  * DrainBatch() is called by exactly one consumer — the thread of the
//    partition that owns the queue — and pushes dequeued elements into the
//    downstream subgraph with DI.
//
// Two enqueue paths (see DESIGN.md, "Queue fast path"):
//  * MPSC (default): a mutex-protected deque. Safe for any number of
//    producer threads.
//  * SPSC (opt-in via SetSingleProducer): a lock-free SpscRing carries the
//    common case; when the ring is full the producer spills to the
//    mutex-protected deque. The consumer merges ring and spillover by
//    global arrival sequence number, so FIFO order — including the
//    cross-queue total order FIFO scheduling relies on — is preserved.
//    Placement enables this automatically for queues fed by exactly one
//    producing execution context (one upstream partition or one source),
//    the common case after Algorithm 1 stall-avoiding placement.
//
// Wakeup coalescing: the enqueue listener fires only on the
// empty -> non-empty transition (plus on EOS enqueue), so a partition's
// condvar notify costs O(drain batches), not O(tuples). A consumer that
// observed the queue empty always gets a fresh notification for the next
// element; elements enqueued while the queue is non-empty are picked up by
// the consumer's ongoing drain loop.
//
// End-of-stream: the queue counts EOS punctuations from its producers and
// appends a single EOS item once the last producer has closed, so the
// punctuation is totally ordered after all data. Draining that item
// forwards EOS downstream exactly once.

#ifndef FLEXSTREAM_QUEUE_QUEUE_OP_H_
#define FLEXSTREAM_QUEUE_QUEUE_OP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "tuple/columnar_batch.h"
#include "util/clock.h"
#include "util/spsc_ring.h"
#include "util/status.h"

namespace flexstream {

/// What a producer hitting a full bounded queue does (ISSUE 3; the paper's
/// Section 6 overload experiments and Chain's memory-minimizing design
/// both presuppose queue memory can be bounded).
///  kBlock      backpressure: the producer waits (timed) until the
///              consumer's drain frees space. Nothing is ever dropped; a
///              wait that exceeds the configured timeout overruns the
///              bound instead of deadlocking and is counted.
///  kShedNewest load shedding: the incoming element is dropped.
///  kShedOldest load shedding: the oldest queued element is dropped to
///              make room for the incoming one. Requires the MPSC path
///              (only the consumer may touch the SPSC ring head), which
///              SetBound enforces.
/// EOS punctuations are never shed and never blocked — termination must
/// propagate even under overload.
enum class OverloadPolicy { kBlock, kShedNewest, kShedOldest };

const char* OverloadPolicyToString(OverloadPolicy policy);
bool OverloadPolicyFromString(const std::string& name, OverloadPolicy* policy);

/// Reserves a contiguous run of `n` global arrival sequence numbers and
/// returns the first. The counter is the same one queue enqueues draw from
/// for FIFO scheduling, so numbers allocated here are totally ordered with
/// queue arrivals. A sequencing Router (src/operators/router.h) stamps
/// split tuples from this counter; the ordered Merge restores that order.
uint64_t AllocateArrivalSeq(uint64_t n = 1);

// `final` lets call sites with a static QueueOp* — producers pushing into
// a known queue, the owning partition draining it — devirtualize Receive
// and inline the whole transfer path under LTO.
class QueueOp final : public Operator {
 public:
  /// Sequence number reported for an empty queue.
  static constexpr uint64_t kNoSeq = std::numeric_limits<uint64_t>::max();

  /// Ring slots allocated when the SPSC fast path is enabled.
  static constexpr size_t kDefaultRingCapacity = 1024;

  explicit QueueOp(std::string name)
      : QueueOp(std::move(name), kDefaultRingCapacity) {}
  QueueOp(std::string name, size_t ring_capacity);

  /// Thread-safe enqueue (data and epoch barriers) / producer-close
  /// bookkeeping (EOS). Barriers ride the FIFO like data — every engine-
  /// placed queue has exactly one producer edge, so no barrier merging is
  /// needed — but bypass the bound: they are never shed and never blocked
  /// (a barrier parked behind a full queue would stall checkpointing
  /// exactly when overload makes recovery most likely).
  void Receive(const Tuple& tuple, int port) override;

  /// Move-aware enqueue: adopts the tuple's payload without copying the
  /// values vector. Used by upstream EmitMove.
  void Receive(Tuple&& tuple, int port) override;

  /// Batch enqueue (DESIGN.md §11): adopts every element of `batch`.
  /// Unbounded queues take a bulk path — one stats update, one lock
  /// acquisition (MPSC) or a straight run of ring pushes (SPSC), and one
  /// queued-count/notify update for the whole batch. Bounded queues
  /// unbundle into per-element Enqueue calls so every admit/shed/block
  /// decision and its counters see elements one at a time, exactly as the
  /// per-tuple contract specifies.
  void ReceiveBatch(TupleBatch&& batch, int port) override;

  /// Columnar enqueue (DESIGN.md §17): an unbounded batch-delivery queue
  /// boxes the whole typed batch into ONE queue item — a unique_ptr move
  /// through the ring or deque instead of N row moves — owning a
  /// contiguous run of arrival seqs (the head seq orders the box in the
  /// FIFO merge; the queued count reflects every row). Bounded queues and
  /// per-tuple-delivery queues materialize to rows at the door so every
  /// admit/shed/block decision still sees elements one at a time.
  void ReceiveColumnar(ColumnarBatchPtr batch, int port) override;

  /// Queues are schema-transparent; this passthrough lets the engine's
  /// columnar schema walk (Configure) cross placed queues.
  SchemaPtr InferOutputSchema(
      const std::vector<SchemaPtr>& inputs) const override {
    return inputs.empty() ? nullptr : inputs[0];
  }

  /// Dequeues up to `max_elements` data elements (plus a trailing EOS if it
  /// becomes due) and pushes them downstream in the calling thread. On the
  /// locked paths (MPSC, SPSC spill merge) the lock is taken once per
  /// barrier-free run — elements are drained directly into a TupleBatch
  /// and emitted outside the lock; on the lock-free SPSC path elements are
  /// emitted straight from the ring when delivering per-tuple, or gathered
  /// into a TupleBatch when batch delivery is enabled. Punctuations always
  /// split the run: the accumulated batch is flushed first, then the
  /// barrier/EOS travels the per-tuple path.
  /// Returns the number of data elements drained. Single-consumer.
  size_t DrainBatch(size_t max_elements);

  /// Downstream delivery granularity. When enabled, each drained
  /// barrier-free run of data elements is pushed downstream as a single
  /// ReceiveBatch call instead of N per-element EmitMove calls; the
  /// engine enables it when EngineOptions::emit_batch_size > 1. Configure
  /// while quiescent. Survives Reset like the bound (it is configuration,
  /// not run state), so recovery keeps the delivery granularity.
  /// Thread-safe (atomic flag): the SLO controller toggles it live when it
  /// raises/lowers the emit batch size; per-tuple and batch delivery are
  /// semantically identical, so the consumer observing the change one
  /// drain late is harmless.
  void SetBatchDelivery(bool enabled) {
    batch_delivery_.store(enabled, std::memory_order_relaxed);
  }
  bool batch_delivery() const {
    return batch_delivery_.load(std::memory_order_relaxed);
  }

  /// Current number of queued data elements, derived from the total
  /// queued-item counter minus a still-queued EOS punctuation. Exact
  /// whenever the queue is quiescent; during the EOS handover itself it
  /// may transiently read one element low, which schedulers tolerate (a
  /// skipped pick is retried on the next scheduling round).
  size_t Size() const {
    const size_t queued = queued_items_.load(std::memory_order_acquire);
    const size_t eos_pending =
        (eos_queued_flag_.load(std::memory_order_acquire) &&
         !eos_forwarded_.load(std::memory_order_acquire))
            ? 1
            : 0;
    return queued > eos_pending ? queued - eos_pending : 0;
  }
  bool Empty() const { return Size() == 0; }

  /// Largest Size() ever observed (updated on enqueue).
  size_t PeakSize() const {
    return peak_size_.load(std::memory_order_relaxed);
  }

  /// True once all producers have delivered EOS (the EOS item may still be
  /// queued behind data).
  bool InputClosed() const {
    return input_closed_.load(std::memory_order_acquire);
  }

  /// True once the EOS punctuation has been pushed downstream and the
  /// queue is empty — this queue will never produce work again.
  bool Exhausted() const {
    return eos_forwarded_.load(std::memory_order_acquire) && Size() == 0;
  }

  /// Global arrival sequence number of the head element, or kNoSeq when
  /// empty. FIFO scheduling picks the queue with the smallest head
  /// sequence, which totally orders elements across all queues by arrival.
  /// In SPSC mode this must be called from the consumer thread (it peeks
  /// the ring), which is where every scheduling strategy runs.
  uint64_t HeadSeq() const;

  /// Installs a callback invoked (outside the queue lock) when the queue
  /// transitions from empty to non-empty and when EOS is enqueued —
  /// partitions use it to wake their worker thread. Coalesced: enqueues
  /// into a non-empty queue do not re-notify.
  void SetEnqueueListener(std::function<void()> listener);

  /// Chaos injection (testing/chaos.h): when set, each enqueue
  /// notification first consults the suppressor; returning true swallows
  /// that wakeup. The partition idle-poll failsafe (and the watchdog) must
  /// recover — which is exactly what chaos runs machine-check. Never set
  /// outside tests.
  void SetWakeupSuppressor(std::function<bool()> suppressor);

  // -- Bounded-queue overload handling ------------------------------------

  /// Imposes a hard element budget on the queue: once Size() reaches
  /// `max_elements`, data enqueues follow `policy` (see OverloadPolicy).
  /// `max_elements` of 0 removes the bound (the default). `block_timeout`
  /// caps one kBlock producer wait — on expiry the element is enqueued
  /// anyway (counted in block_timeouts()), so accidental partition cycles
  /// cannot deadlock. Call while the queue is quiescent, before the engine
  /// starts. kShedOldest forces the MPSC enqueue path.
  void SetBound(size_t max_elements, OverloadPolicy policy,
                Duration block_timeout = std::chrono::seconds(2));
  size_t max_elements() const { return max_elements_; }
  OverloadPolicy overload_policy() const {
    return overload_policy_.load(std::memory_order_acquire);
  }
  bool bounded() const { return max_elements_ != 0; }

  /// Live overload-policy flip on an already-bounded queue — the SLO
  /// controller's rung-4 actuation (flip to shedding last, flip back on
  /// de-escalation). Thread-safe against concurrent producers/consumer;
  /// only kBlock <-> kShedNewest are allowed live (kShedOldest changes the
  /// enqueue path, which must not happen under running producers).
  /// Producers parked in a kBlock wait when the policy leaves kBlock are
  /// woken and enqueue their element (a bounded overrun — in-flight
  /// elements are never retroactively shed); subsequent enqueues shed.
  /// Fails without effect on an unbounded queue or a kShedOldest target.
  Status SetOverloadPolicyLive(OverloadPolicy policy);

  /// Overload counters. dropped() is the total across both shed kinds;
  /// with kBlock it stays 0 (kBlock never drops — see block_timeouts()).
  int64_t dropped_newest() const {
    return dropped_newest_.load(std::memory_order_relaxed);
  }
  int64_t dropped_oldest() const {
    return dropped_oldest_.load(std::memory_order_relaxed);
  }
  int64_t dropped() const { return dropped_newest() + dropped_oldest(); }
  /// Times a kBlock producer parked waiting for space.
  int64_t block_waits() const {
    return block_waits_.load(std::memory_order_relaxed);
  }
  /// Times a kBlock wait expired and overran the bound instead.
  int64_t block_timeouts() const {
    return block_timeouts_.load(std::memory_order_relaxed);
  }

  /// Epoch of the last barrier enqueued (0 before the first). Lets stall
  /// diagnostics (DescribePartitions) tell a stalled recovery from a
  /// stalled drain.
  uint64_t last_barrier_epoch() const {
    return last_barrier_epoch_.load(std::memory_order_relaxed);
  }

  /// Unblocks every producer currently parked in a kBlock wait and makes
  /// future waits return immediately (elements are enqueued, not dropped).
  /// Used on failure/teardown paths so no thread stays wedged behind a
  /// partition that will never drain again. Reset() re-arms blocking.
  void CancelProducerWaits();

  /// Tags the queue with the execution context that drains it (the owning
  /// partition). A kBlock producer running in that same context skips the
  /// wait entirely — blocking on a queue only oneself can drain is a
  /// guaranteed deadlock (e.g. GTS, where one thread drains every queue).
  void SetOwnerToken(const void* owner) { owner_ = owner; }
  /// Declares the calling thread's current draining context (thread-local;
  /// set by Partition::RunLoop for the duration of the loop).
  static void SetCurrentDrainContext(const void* context);
  static const void* CurrentDrainContext();

  /// A producer that parks in a kBlock wait may be holding an execution
  /// slot of the level-3 ThreadScheduler; parking without giving it up
  /// starves the very consumer whose drain would free the space whenever
  /// slots are scarce (with max_running of 1 the wait can only ever end by
  /// overrun timeout). A thread that runs under a slot scheduler declares
  /// a yielder (thread-local; set by Partition::RunLoop): WaitForSpace
  /// releases the slot for the duration of the park and reacquires it
  /// before returning.
  class SlotYielder {
   public:
    virtual ~SlotYielder() = default;
    virtual void ReleaseSlot() = 0;
    virtual void ReacquireSlot() = 0;
  };
  static void SetCurrentSlotYielder(SlotYielder* yielder);
  static SlotYielder* CurrentSlotYielder();

  /// Selects the enqueue path. `true` promises that at most one thread at
  /// a time calls Receive (one producing partition or source); the queue
  /// then routes data through the lock-free SPSC ring. `false` (default)
  /// uses the mutex-protected deque. Must be called while the queue is
  /// empty and no producer/consumer is active (e.g. right after placement,
  /// before the engine starts).
  void SetSingleProducer(bool single_producer);
  bool single_producer() const {
    return single_producer_.load(std::memory_order_acquire);
  }

  /// Deliberate fault injection for the differential correctness harness
  /// (src/testing/differential.h). kReorderDrainBatch emits each drained
  /// batch in *reverse* order on the locked drain paths (MPSC and SPSC
  /// spill merge), violating the FIFO contract; the harness's mutation
  /// test asserts its sequence oracle catches exactly this. The fault is
  /// a no-op on the lock-free SPSC ring path (which emits straight from
  /// ring slots), so callers force the MPSC path when injecting. Never
  /// set outside tests.
  enum class TestFault { kNone, kReorderDrainBatch };
  void SetTestFault(TestFault fault) {
    test_fault_.store(fault, std::memory_order_release);
  }
  TestFault test_fault() const {
    return test_fault_.load(std::memory_order_acquire);
  }

  /// Diagnostics: enqueues that took the lock-free ring / the mutex path
  /// (spillover or MPSC), and listener invocations. Used by tests and the
  /// throughput bench to verify which path ran.
  int64_t ring_pushes() const {
    return ring_pushes_.load(std::memory_order_relaxed);
  }
  int64_t locked_pushes() const {
    return locked_pushes_.load(std::memory_order_relaxed);
  }
  int64_t notifications() const {
    return notifications_.load(std::memory_order_relaxed);
  }

  void Reset() override;

 protected:
  /// Never called: QueueOp overrides Receive entirely.
  void Process(const Tuple& tuple, int port) override;

 private:
  struct Item {
    Tuple tuple;
    uint64_t seq = 0;
    /// Boxed columnar payload: when set, this item carries a whole typed
    /// batch (tuple is an ignored placeholder) and accounts for
    /// col->size() rows in queued_items_. seq is the first of the batch's
    /// contiguous arrival-seq run.
    ColumnarBatchPtr col;
  };

  void Enqueue(Tuple&& tuple, bool is_barrier = false);
  /// Bulk enqueue for an unbounded queue: one stats update, one lock (or a
  /// run of ring pushes), one queued-count bump for the whole batch.
  void EnqueueBatch(TupleBatch&& batch);
  /// Boxes a columnar batch into one queue item (unbounded + batch
  /// delivery only; see ReceiveColumnar).
  void EnqueueColumnar(ColumnarBatchPtr batch);
  /// Forwards a drained boxed batch downstream (stats + EmitColumnar).
  void EmitColumnarDrained(ColumnarBatchPtr col);
  void EnqueueEos(const Tuple& tuple);
  /// kBlock producer wait: parks until Size() < max_elements_, the
  /// timeout expires (overrun), waits are cancelled, or the run failed.
  void WaitForSpace();
  /// Wakes kBlock producers after a drain freed space (satellite: the
  /// consumer-side space_available notification). Cheap when nobody
  /// waits — one relaxed load.
  void NotifySpaceFreed();
  /// SPSC producer path: ring first, spill to the locked deque when full.
  void PushItemSingleProducer(Item&& item);
  /// Bumps the queued-item count, maintains the peak, and fires the
  /// listener on the empty -> non-empty transition (or unconditionally
  /// for EOS).
  void CountQueuedAndMaybeNotify(bool is_eos, bool single);
  /// Batch analogue: bumps the queued count by `n` at once and notifies on
  /// the empty -> non-empty transition (count == n after the add).
  void CountQueuedBatchAndMaybeNotify(size_t n, bool single);
  void NotifyListener();
  /// Emits a drained barrier-free run downstream: as one ReceiveBatch call
  /// when batch delivery is enabled, else per-tuple EmitMove. Leaves
  /// `batch` empty either way.
  void EmitDrainedBatch(TupleBatch* batch);
  /// SPSC consumer path: drains observed ring runs lock-free and emits
  /// straight from each pop (no lock is held, so no scratch staging);
  /// falls into DrainMergeLocked whenever spillover is present.
  size_t DrainBatchSingleProducer(size_t max_elements);
  /// Merges ring and spillover deque by sequence number under the lock,
  /// draining directly into a TupleBatch and emitting outside the lock.
  /// A punctuation ends the merge run (the caller's loop re-enters while
  /// spillover remains). Returns the number of data items taken (barriers
  /// included) and sets `eos_taken`/`eos_ts`.
  size_t DrainMergeLocked(size_t max_elements, bool* eos_taken,
                          AppTime* eos_ts);
  /// Post-dequeue bookkeeping shared by the locked paths: drops the
  /// dequeued items (incl. a taken EOS) from the queued count and marks
  /// EOS as forwarded.
  void FinishDequeue(size_t taken, bool eos_taken);

  const size_t ring_capacity_;

  // --- bound configuration (written while quiescent, read by producers;
  // the atomics additionally admit the controller's live flips) ----------
  size_t max_elements_ = 0;  // 0 = unbounded
  std::atomic<bool> batch_delivery_{false};  // ReceiveBatch vs per-tuple
  std::atomic<OverloadPolicy> overload_policy_{OverloadPolicy::kBlock};
  Duration block_timeout_ = std::chrono::seconds(2);
  const void* owner_ = nullptr;  // draining context, for self-block bypass

  // --- overload counters / producer-wait machinery -----------------------
  std::atomic<int64_t> dropped_newest_{0};
  std::atomic<int64_t> dropped_oldest_{0};
  std::atomic<int64_t> block_waits_{0};
  std::atomic<int64_t> block_timeouts_{0};
  std::atomic<uint64_t> last_barrier_epoch_{0};
  std::atomic<bool> waits_cancelled_{false};
  std::atomic<int> space_waiters_{0};
  std::mutex space_mutex_;
  std::condition_variable space_cv_;

  // --- shared, lock-free ------------------------------------------------
  std::atomic<bool> single_producer_{false};
  std::atomic<size_t> queued_items_{0};  // data + the queued EOS item
  std::atomic<bool> eos_queued_flag_{false};  // mirror of eos_enqueued_
  std::atomic<size_t> overflow_count_{0};  // items_ size in SPSC mode
  std::atomic<size_t> peak_size_{0};
  std::atomic<bool> input_closed_{false};
  std::atomic<bool> eos_forwarded_{false};
  std::atomic<int64_t> ring_pushes_{0};
  std::atomic<int64_t> locked_pushes_{0};
  std::atomic<int64_t> notifications_{0};
  std::atomic<TestFault> test_fault_{TestFault::kNone};

  // --- SPSC fast path ---------------------------------------------------
  std::unique_ptr<SpscRing<Item>> ring_;

  // --- mutex-protected slow path (MPSC deque / SPSC spillover + EOS
  // bookkeeping) ---------------------------------------------------------
  mutable std::mutex mutex_;
  std::deque<Item> items_;
  size_t eos_received_ = 0;
  bool eos_enqueued_ = false;
  AppTime max_eos_timestamp_ = 0;

  // The listener is stored behind its own mutex so enqueues never copy a
  // std::function under the main queue lock; the notify path (rare, thanks
  // to coalescing) copies a shared_ptr instead.
  mutable std::mutex listener_mutex_;
  std::shared_ptr<const std::function<void()>> listener_;
  std::shared_ptr<const std::function<bool()>> wakeup_suppressor_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_QUEUE_QUEUE_OP_H_
