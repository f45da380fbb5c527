// The push-based operator base class with direct interoperability (DI).
//
// Section 2.4 of the paper: "we let an operator invoke its successors.
// Therefore, an incoming element at an operator triggers a chain reaction,
// resulting in a depth first traversal of the graph." Emit() is that
// invocation — it calls Receive() on every subscriber in the current
// thread. Decoupling only happens where a QueueOp (queue/queue_op.h) is
// wired in; everything between two queues forms a virtual operator
// (Section 3.3) automatically.
//
// Threading contract: a non-queue operator is only ever executed by one
// thread at a time (the thread driving its partition). Queue operators
// override Receive with a thread-safe implementation and are the only legal
// cross-thread boundaries.

#ifndef FLEXSTREAM_OPERATORS_OPERATOR_H_
#define FLEXSTREAM_OPERATORS_OPERATOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "graph/node.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"
#include "util/run_status.h"

namespace flexstream {

class ColumnarBatch;
using ColumnarBatchPtr = std::unique_ptr<ColumnarBatch>;

/// Globally enables/disables online statistics collection (cost,
/// inter-arrival, selectivity). Enabled by default; throughput benchmarks
/// that compare raw scheduling overheads switch it off so all modes pay
/// identical bookkeeping (none).
void SetStatsCollectionEnabled(bool enabled);
bool StatsCollectionEnabled();

/// Verdict of a fault hook for one delivery attempt (testing/chaos.h).
enum class FaultAction {
  kProceed,           // process the element normally
  kTransientFailure,  // fail this attempt; the operator retries with backoff
  kPermanentFailure,  // the operator fails permanently (Operator::Fail)
};

/// Shape of the capped exponential backoff between transient-fault
/// retries: attempt n sleeps min(cap, base * 2^n) microseconds, shortened
/// by a uniformly random fraction in [0, jitter]. The jitter is seeded per
/// operator (seed ^ hash(name)), so parallel partitions retrying against a
/// shared downstream desynchronize deterministically instead of
/// thundering-herding it in lockstep.
struct RetryBackoffOptions {
  double base_micros = 1.0;
  double cap_micros = 256.0;
  /// Fraction of the computed sleep that may be randomly shaved off
  /// (0 = fully synchronized legacy behavior, 1 = anywhere down to 0).
  double jitter = 0.5;
  uint64_t seed = 0;

  bool operator==(const RetryBackoffOptions&) const = default;
};

class Operator : public Node {
 public:
  /// Transient-failure retry budget per element; when a fault hook keeps
  /// reporting kTransientFailure past this many attempts the failure is
  /// escalated to a permanent one.
  static constexpr int kMaxFaultRetries = 16;

  /// Consulted once per delivery attempt before Process(); `attempt` is 0
  /// on the first try and increments across retries of the same element.
  using FaultHook =
      std::function<FaultAction(const Operator&, const Tuple&, int port,
                                int attempt)>;

  Operator(Kind kind, std::string name, int input_arity);

  /// Delivers `tuple` on input `port` in the calling thread.
  ///
  /// Every data delivery — this one, ReceiveBatch and ReceiveColumnar —
  /// passes the one delivery gate (DESIGN.md §11), the per-tuple case being
  /// n = 1. The gate drops the elements of a poisoned (failed) operator,
  /// sleeps the simulated blocking and burns the simulated cost, and
  /// measures c(v) as *self* time: time spent inside downstream Receive()
  /// calls triggered by Emit() is attributed to the downstream operators,
  /// so c(v) is per-operator as Section 5.1.2 requires even though DI
  /// executes whole subgraphs in one call stack. Waiting is not computing:
  /// simulated blocking and transient-fault backoff count as child time,
  /// in neither this operator's c(v) nor its DI upstream's. Arrivals count
  /// every element that reaches a healthy operator's gate; processed
  /// counts the elements Process ran on.
  ///
  /// An EOS tuple bypasses the gate: it is counted, and once every input
  /// edge has delivered EOS, OnAllInputsClosed() runs exactly once.
  virtual void Receive(const Tuple& tuple, int port);

  /// Move-aware delivery. The default forwards to the const& overload
  /// (Process never stores its argument, so nothing is copied); operators
  /// that buffer tuples — most importantly QueueOp — override it to move
  /// the payload in instead of copying the values vector.
  /// Note: the base implementation forwards to the base lvalue Receive
  /// without a second virtual dispatch, so a subclass overriding the
  /// lvalue form must override this one as well.
  virtual void Receive(Tuple&& tuple, int port);

  /// Batch delivery (DESIGN.md §11): semantically identical to calling
  /// Receive() once per element, in order, on `port`, but pays the virtual
  /// dispatch, serialization lock and the delivery gate once per batch.
  /// Batches carry data tuples only — punctuations (EOS, barriers) always
  /// travel through Receive() — and producers flush before every
  /// punctuation, so a batch never straddles a barrier. With barrier
  /// alignment armed, a batch from an open channel is delivered whole and
  /// a batch from a blocked channel is appended whole to its backlog. The
  /// gate hands the batch to ProcessBatch, or — with a fault hook or seq
  /// stamping engaged — runs the per-element loop of the per-tuple path
  /// (the hook votes and the stamp is read per element), stopping at the
  /// first element that poisons the operator.
  virtual void ReceiveBatch(TupleBatch&& batch, int port);

  /// Columnar delivery (DESIGN.md §17): semantically identical to calling
  /// ReceiveBatch on the materialized rows. The door is this one place:
  /// unless the operator accepts the batch's schema (AcceptsColumnar) and
  /// no fault hook, seq stamping or blocked barrier channel needs the rows,
  /// the batch materializes to a TupleBatch, recycles its column storage,
  /// and takes the row batch path. Otherwise ProcessColumnar gets the whole
  /// typed batch — an armed epoch with the channel open included — through
  /// the same delivery gate as a row batch.
  virtual void ReceiveColumnar(ColumnarBatchPtr batch, int port);

  /// True once OnAllInputsClosed has run (all inputs delivered EOS).
  bool closed() const { return closed_; }

  /// Deterministic synthetic work: burns this much CPU per data element
  /// immediately before Process(), independent of the element's content.
  /// Lets harnesses attach a fixed per-element cost to *any* operator
  /// (including pass-through ones like UnionOp) so scheduling experiments
  /// and differential tests exercise realistic interleavings without
  /// data-dependent work. 0 (the default) disables the burn.
  void SetSimulatedCostMicros(double micros);
  double simulated_cost_micros() const { return simulated_cost_micros_; }

  /// Deterministic synthetic *blocking*: sleeps this long per data element
  /// immediately before Process(), modeling an operator bound by waiting
  /// (I/O, remote lookups) rather than CPU. Unlike the busy burn above,
  /// sleeps overlap across threads, so sharding a blocking operator scales
  /// even on a single core. 0 (the default) disables it.
  void SetSimulatedBlockingMicros(double micros);
  double simulated_blocking_micros() const {
    return simulated_blocking_micros_;
  }

  /// Constructs a fresh, state-empty copy of this operator under a new
  /// name: same logical parameters (predicate, window, key attributes...),
  /// none of the run state, detached from any graph. Returns nullptr when
  /// the operator does not support cloning (the default). ShardOperator
  /// (src/api/shard.h) uses this to make replicas.
  virtual std::unique_ptr<Operator> CloneFresh(std::string name) const;

  // -- Sharding support (src/api/shard.h) --------------------------------

  /// When enabled, every emitted data tuple is stamped with the arrival
  /// sequence number of the input element currently being processed, and
  /// batch deliveries call Process once per element (so the stamp is
  /// exact per element). Shard replicas under an ordered merge enable
  /// this; it propagates the split-point sequence through one-in/N-out
  /// operators so the Merge can restore global arrival order.
  void SetStampEmitSeq(bool enabled) { stamp_emit_seq_ = enabled; }
  bool stamp_emit_seq() const { return stamp_emit_seq_; }

  /// Requests that HMTS placement give this operator its own partition
  /// (its own thread) instead of flood-filling it into the surrounding
  /// component. Shard replicas set this so the shards actually spread.
  void SetPlacementSolo(bool solo) { placement_solo_ = solo; }
  bool placement_solo() const { return placement_solo_; }

  /// Tags this operator as replica `index` of the sharded operator named
  /// `group` (stats reporting surfaces per-replica rows and an imbalance
  /// summary). An empty group means "not a shard replica".
  void SetShardInfo(std::string group, int index) {
    shard_group_ = std::move(group);
    shard_index_ = index;
  }
  const std::string& shard_group() const { return shard_group_; }
  int shard_index() const { return shard_index_; }

  /// Serializes Receive() with an internal mutex. Required only when the
  /// operator is driven by multiple threads *without* a decoupling queue
  /// in between — i.e. source-driven execution where several autonomous
  /// sources push into a shared operator (the Section 6.3 join setup).
  /// The cost of this lock is part of the "synchronization overhead"
  /// trade-off the paper discusses; scheduled execution never needs it
  /// because partitions are single-threaded and queues decouple.
  void SetSerializedReceive(bool enabled);
  bool serialized_receive() const { return receive_mutex_ != nullptr; }

  /// Attaches the engine run's first-failure collector. Fail() reports
  /// here; without one, failures are only logged. Set while the graph is
  /// quiescent (engine Configure/Deconfigure); pass nullptr to detach.
  void SetRunStatus(RunStatus* run_status) { run_status_ = run_status; }
  RunStatus* run_status() const { return run_status_; }

  /// True once Fail() has run: the operator is poisoned and drops all
  /// further data elements (EOS is still honored so the graph can close).
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Installs a per-delivery fault hook (deterministic fault injection —
  /// see testing/chaos.h). Transient verdicts are retried with capped
  /// exponential backoff; permanent verdicts (or an exhausted retry
  /// budget) fail the operator. Install/remove only while quiescent.
  void SetFaultHook(FaultHook hook);
  bool has_fault_hook() const { return fault_hook_ != nullptr; }

  /// Transient-fault retries performed so far (one per repeated attempt).
  int64_t fault_retries() const {
    return fault_retries_.load(std::memory_order_relaxed);
  }

  /// Configures the transient-retry backoff (see RetryBackoffOptions).
  /// Set while quiescent.
  void SetRetryBackoff(const RetryBackoffOptions& options);
  const RetryBackoffOptions& retry_backoff() const { return retry_backoff_; }

  // -- Epoch barriers (checkpoint/recovery, src/recovery/) ---------------
  //
  // Barrier tuples (Tuple::EpochBarrier) flow through the graph like data
  // but are intercepted by the base Receive path: the operator blocks each
  // input channel that has delivered the epoch-k barrier (buffering any
  // further arrivals from it) until every open channel has, then — with its
  // state reflecting exactly epochs 1..k — invokes the epoch callback
  // (which snapshots StatefulOperators), forwards one barrier downstream,
  // and releases the buffered backlog. Single-input operators align
  // instantly and never buffer. Channels are identified by the *sender*
  // (thread-local, set by every Emit/drain path), not the port, because
  // variadic operators receive all producers on port 0.

  /// Invoked in the operator's own thread at each barrier alignment, after
  /// state reflects the closed epoch and before downstream forwarding; the
  /// sentinel kEpochClosed is delivered once when all inputs close. Install
  /// while quiescent; nullptr detaches.
  using EpochCallback = std::function<void(uint64_t epoch)>;
  static constexpr uint64_t kEpochClosed = ~0ull;
  void SetEpochCallback(EpochCallback callback);

  /// Last epoch this operator aligned (0 before the first barrier).
  /// Readable from any thread (diagnostics).
  uint64_t aligned_epoch() const {
    return aligned_epoch_.load(std::memory_order_acquire);
  }

  /// After a recovery restore (post-Reset): future barriers continue from
  /// `epoch` + 1 instead of 1.
  void SetRecoveredEpoch(uint64_t epoch);

  /// Re-arms EOS bookkeeping for a new run. Subclasses clearing operator
  /// state must call the base implementation.
  void Reset() override;

  /// The upstream node whose Emit/drain loop is making the current
  /// delivery (see SetDeliverySender). Valid inside Process/ProcessBatch.
  static const Node* CurrentDeliverySender() { return tl_delivery_sender_; }

  /// Forgets the calling thread's delivery sender. The worker pool calls
  /// it before every job so a reused thread starts like a fresh one.
  static void ClearDeliverySender() { tl_delivery_sender_ = nullptr; }

 protected:
  /// Marks this operator permanently failed: reports `status` to the run's
  /// RunStatus (naming this operator) and poisons the operator so later
  /// data deliveries are dropped. Never aborts the process. Idempotent —
  /// only the first failure is reported.
  void Fail(Status status);
  /// Handles one data element from input `port`. Implementations call
  /// Emit() zero or more times.
  virtual void Process(const Tuple& tuple, int port) = 0;

  /// Handles one batch of data elements — the delivery gate (failure
  /// poisoning, stats, simulated cost and blocking) has already been
  /// applied for the whole batch. Batch-native operators (Selection,
  /// Projection, MapOp, UnionOp, the counting/collecting sinks) override
  /// this to transform the batch in place and forward it with
  /// EmitBatch(); the default unbundles into per-tuple Process() calls, so
  /// batches simply dissolve at the first operator that hasn't opted in.
  virtual void ProcessBatch(TupleBatch&& batch, int port);

  /// True when ProcessColumnar takes a batch of `schema` arriving on
  /// `port` whole (the columnar door of ReceiveColumnar). Kernels check
  /// here that the schema carries the typed columns they read. The
  /// default — no kernel — is false.
  virtual bool AcceptsColumnar(const Schema& schema, int port) const;

  /// Handles one columnar batch the door let through (AcceptsColumnar was
  /// true for its schema), with the delivery gate already applied.
  virtual void ProcessColumnar(ColumnarBatchPtr batch, int port);

  /// Called once when all input edges have closed. The default emits an EOS
  /// punctuation downstream; stateful operators flush first, sinks signal
  /// completion. `timestamp` is the max EOS timestamp observed.
  virtual void OnAllInputsClosed(AppTime timestamp);

  /// Called at each barrier alignment, after state reflects the closed
  /// epoch (and after aligned_epoch() advanced) but *before* the epoch
  /// callback runs and the barrier is forwarded downstream. Emissions made
  /// here still belong to the closing epoch. The ordered Merge flushes its
  /// pending lanes here — at alignment every channel has delivered its
  /// full pre-barrier prefix, so the flush is safe and leaves the merge
  /// stateless at every snapshot point. Default: no-op.
  virtual void OnEpochAligned(uint64_t epoch);

  /// Called at the top of the EOS delivery path, once per input channel
  /// that closes, before fan-in close accounting. `sender` is the
  /// delivering upstream node (nullptr when driven from outside a graph).
  /// The ordered Merge marks the sender's lane closed so it stops gating
  /// releases. Default: no-op.
  virtual void OnInputEos(const Node* sender, int port);

  /// Direct interoperability: pushes `tuple` to every subscriber, in
  /// subscription order, within the current thread.
  void Emit(const Tuple& tuple);

  /// Like Emit, but surrenders ownership of `tuple`: the last subscriber
  /// receives it by rvalue, so a downstream QueueOp moves the values
  /// vector instead of copying it. Earlier subscribers (fan-out) still get
  /// copies — they each need their own payload. Taking an rvalue reference
  /// (not by value) spares the hot drain loops one move per element.
  void EmitMove(Tuple&& tuple);

  /// Batch analogue of EmitMove: pushes `batch` to every subscriber in
  /// subscription order. The last subscriber adopts the storage; earlier
  /// (fan-out) subscribers receive copies.
  void EmitBatch(TupleBatch&& batch);

  /// Columnar analogue of EmitBatch: the last subscriber adopts the boxed
  /// batch; earlier (fan-out) subscribers receive pool-allocated copies.
  void EmitColumnar(ColumnarBatchPtr batch);

  /// Pushes `tuple` to the single subscriber at `output_index` (the order
  /// outputs were connected in). Used by routing operators that partition
  /// their output stream instead of broadcasting it.
  void EmitTo(size_t output_index, const Tuple& tuple);

  /// Move-aware EmitTo: the single subscriber adopts the payload.
  void EmitTo(size_t output_index, Tuple&& tuple);

  /// Batch analogue of EmitTo: the subscriber at `output_index` adopts the
  /// whole run. Used by the Router's batch-native scatter to deliver each
  /// per-replica run as one ReceiveBatch call.
  void EmitBatchTo(size_t output_index, TupleBatch&& batch);

  /// Emits the EOS punctuation downstream (used by OnAllInputsClosed
  /// overrides after flushing).
  void EmitEos(AppTime timestamp);

  /// Forwards an epoch barrier to every subscriber (alignment and QueueOp
  /// pass-through).
  void EmitBarrier(const Tuple& barrier);

  /// Declares `sender` as the origin of the Receive() calls this thread is
  /// about to make — barrier alignment keys channels on it. Every Emit*
  /// path sets it automatically; QueueOp's drain loops call it directly.
  /// Inline (a single thread-local store): it sits on per-tuple drain
  /// loops, where an out-of-line call is measurable.
  static void SetDeliverySender(const Node* sender) {
    tl_delivery_sender_ = sender;
  }

 private:
  // One input channel = one upstream producer. `port` is the port its
  // deliveries arrive on (0 for variadic operators regardless of producer).
  struct EpochChannel {
    const Node* source = nullptr;
    int port = 0;
    bool blocked = false;  // barrier for the next epoch seen, holding input
    bool closed = false;   // EOS consumed — aligned at infinity
    std::deque<Tuple> backlog;  // arrivals while blocked, in order
  };
  struct EpochState {
    uint64_t aligned_epoch = 0;
    bool releasing = false;  // re-entrancy guard for backlog release
    std::vector<EpochChannel> channels;  // from Node::inputs()
  };

  /// The sender of the Receive() calls the current thread is making; see
  /// SetDeliverySender. Read only by barrier channel lookup.
  static thread_local const Node* tl_delivery_sender_;

  /// Runs `deliver` under the serialization lock of SetSerializedReceive
  /// (directly when serialization is off) — the one wrapper behind
  /// Receive, ReceiveBatch and ReceiveColumnar.
  template <typename Deliver>
  void Serialized(const Deliver& deliver);
  /// The one delivery gate for `n` >= 1 data elements: poison check,
  /// simulated blocking (booked as child time), the self-time stats window
  /// (or its stats-off branch) and the simulated burn around `step`, which
  /// returns how many elements Process ran on. Returns false when the
  /// operator is poisoned and `step` did not run.
  template <typename Step>
  bool Gate(size_t n, const Step& step);
  /// The per-element loop over `n` >= 1 elements: runs the fault hook, sets
  /// the seq stamp and calls Process for each element in order, stopping
  /// at the first that poisons the operator. Returns the number of
  /// elements processed.
  size_t ProcessElements(const Tuple* tuples, size_t n, int port);
  /// The pre-barrier per-tuple delivery: EOS accounting, or the gate.
  void DeliverLocked(const Tuple& tuple, int port);
  /// Row batch delivery under the (optional) serialization lock: buffers
  /// the batch behind a blocked barrier channel, else delivers it.
  void ReceiveBatchLocked(TupleBatch&& batch, int port);
  /// Passes a pre-barrier row batch through the gate.
  void DeliverBatchLocked(TupleBatch&& batch, int port);
  /// Columnar delivery under the (optional) serialization lock: the row
  /// batch fallback, or the gate around ProcessColumnar.
  void ReceiveColumnarLocked(ColumnarBatchPtr batch, int port);
  /// True when barrier alignment is holding back the current sender's
  /// channel. Requires epoch_state_.
  bool SenderChannelBlocked(int port);
  /// Barrier-aware routing. Returns true when the delivery was consumed
  /// (barrier handled or arrival buffered behind one). Kept out of line so
  /// the epoch machinery never bloats Receive out of the inliner's budget
  /// on the per-tuple delivery path of un-armed runs.
  __attribute__((noinline)) bool HandleEpochDelivery(const Tuple& tuple,
                                                     int port);
  /// The one fan-out loop behind every Emit*: counts `emitted` output
  /// elements (0 for punctuations), then delivers `payload` along output
  /// edges [first, end), a copy to every edge but the last and the payload
  /// itself to the last, declaring this operator the delivery sender
  /// before each edge.
  template <typename Payload>
  void FanOut(size_t first, size_t end, size_t emitted, Payload&& payload);
  void InitEpochState(uint64_t aligned_epoch);
  EpochChannel* ChannelForCurrentSender(int port);
  /// Aligns as many epochs as the blocked/closed channel pattern allows,
  /// releasing backlogs between alignments.
  void AlignAndRelease();
  /// Runs the fault hook's retry loop for one element. Returns true when
  /// the element should be processed, false when it must be dropped (the
  /// operator failed permanently).
  bool PassesFaultHook(const Tuple& tuple, int port);

  size_t eos_received_ = 0;
  bool closed_ = false;
  AppTime max_eos_timestamp_ = 0;
  double simulated_cost_micros_ = 0.0;
  double simulated_blocking_micros_ = 0.0;
  std::unique_ptr<std::mutex> receive_mutex_;

  // -- Sharding state (src/api/shard.h) ----------------------------------
  // stamp_emit_seq_/current_input_seq_ implement split-point sequence
  // propagation: ProcessElements records the input element's stamp, the
  // Emit family copies it onto every output element. Only the operator's
  // executing thread touches current_input_seq_.
  bool stamp_emit_seq_ = false;
  uint64_t current_input_seq_ = 0;
  bool placement_solo_ = false;
  std::string shard_group_;
  int shard_index_ = -1;

  // Failure state: failed_ is written by the operator's own executing
  // thread but read by engine/test threads, hence atomic; the Status
  // payload lives in the shared RunStatus.
  std::atomic<bool> failed_{false};
  RunStatus* run_status_ = nullptr;
  std::shared_ptr<const FaultHook> fault_hook_;
  std::atomic<int64_t> fault_retries_{0};
  RetryBackoffOptions retry_backoff_;
  std::unique_ptr<std::mt19937_64> retry_rng_;  // lazily seeded on first use

  // Epoch machinery. epoch_state_ is touched only by the operator's
  // executing thread (allocated lazily at the first barrier);
  // aligned_epoch_ mirrors its counter for cross-thread reads. The
  // callback is shared_ptr-guarded like the fault hook.
  std::unique_ptr<EpochState> epoch_state_;
  std::shared_ptr<const EpochCallback> epoch_callback_;
  std::atomic<uint64_t> aligned_epoch_{0};
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_OPERATOR_H_
