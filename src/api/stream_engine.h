// StreamEngine: end-to-end execution of a query graph under any of the
// paper's scheduling architectures.
//
// The engine takes a *logical* (queue-free) query graph, inserts
// decoupling queues according to the chosen execution mode, builds the
// level-2/level-3 scheduling machinery, and runs the graph to completion:
//
//   kSourceDriven  no queues at all; the sources' threads execute the
//                  whole graph with DI (the Section 6.3 configuration).
//   kDirect        one queue after each source; a single thread executes
//                  all operators as one VO (the "DI" configuration of
//                  Sections 6.4/6.5).
//   kGts           a queue before every operator; one thread schedules
//                  them with a pluggable strategy (Section 4.1.1).
//   kOts           a queue before every operator; one thread per
//                  consuming operator (Section 4.1.2).
//   kHmts          queues placed by a placement algorithm (Algorithm 1 by
//                  default); one thread per graph partition under the
//                  level-3 ThreadScheduler (Section 4.2).
//
// Every scheduled mode runs on the one HmtsExecutor: GTS and OTS are just
// partitionings of it whose threads take no level-3 slots ("OTS and GTS
// are special cases of our architecture", Section 4.2.2).
//
// Runtime flexibility (Section 4.2.2): SwitchTo() rebuilds the scheduling
// configuration on the fly. A kGts <-> kOts switch that changes nothing
// but the mode, strategy, level-3 and partition options keeps the queues
// in place and is safe while sources keep pushing. Every other switch
// (different queue positions, or any option the placed queues, sources or
// recovery read) is structural: it drains and removes the queues and
// configures anew, and requires the sources to be paused, exactly the
// "interrupting the processing of the graph shortly" of Section 5.1.3.

#ifndef FLEXSTREAM_API_STREAM_ENGINE_H_
#define FLEXSTREAM_API_STREAM_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hmts.h"
#include "graph/query_graph.h"
#include "operators/sink.h"
#include "placement/partitioning.h"
#include "queue/queue_op.h"
#include "recovery/recovery_manager.h"
#include "util/run_status.h"
#include "util/status.h"

namespace flexstream {

enum class ExecutionMode { kSourceDriven, kDirect, kGts, kOts, kHmts };
enum class PlacementKind { kStallAvoiding, kChain, kSegment };

const char* ExecutionModeToString(ExecutionMode mode);
const char* PlacementKindToString(PlacementKind kind);

/// Inverses of the *ToString functions; return false on unknown names.
/// Used by the differential harness's replay files.
bool ExecutionModeFromString(const std::string& name, ExecutionMode* mode);
bool PlacementKindFromString(const std::string& name, PlacementKind* kind);

struct EngineOptions {
  ExecutionMode mode = ExecutionMode::kHmts;
  /// Level-2 strategy for the single GTS/kDirect partition and for every
  /// HMTS partition. OTS partitions hold one operator's queues and always
  /// use FIFO.
  StrategyKind strategy = StrategyKind::kFifo;
  /// Queue-placement algorithm (kHmts only).
  PlacementKind placement = PlacementKind::kStallAvoiding;
  /// Ring slots per placed queue. Small values (e.g. 2) force the
  /// ring-full spillover + seq-merge drain path on every few elements; 0
  /// means no ring, so every push and drain takes the locked path. The
  /// differential harness and spill regression tests rely on both.
  size_t queue_ring_capacity = QueueOp::kDefaultRingCapacity;
  /// Hard element budget applied to every placed queue; 0 (the default)
  /// keeps queues unbounded. See QueueOp::SetBound.
  size_t queue_max_elements = 0;
  /// What producers do when a bounded queue is full.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Per-wait cap for kBlock producers; on expiry the element overruns the
  /// bound instead of risking a cross-partition deadlock.
  Duration block_wait_timeout = std::chrono::seconds(2);
  Partition::Options partition;
  ThreadScheduler::Options ts;
  /// Checkpointing: elements per source between epoch barriers. 0 (the
  /// default) disables checkpointing entirely — no barriers, no replay
  /// buffers, zero overhead on the data path.
  uint64_t checkpoint_epoch_interval = 0;
  /// Recovery attempts per run before falling back to the abort path.
  int max_recovery_attempts = 3;
  /// Per-source replay-buffer element cap (0 = unbounded). Overflowing it
  /// disqualifies recovery for the run rather than replaying a truncated
  /// stream.
  size_t replay_buffer_max_elements = 1 << 20;
  /// Durable checkpoints (DESIGN.md §16): non-empty (with checkpointing
  /// enabled) persists every committed epoch's operator snapshots and
  /// source replay cursors to this directory, enabling ColdRestart after a
  /// process death. Every stateful operator encodes its state; Configure
  /// fails only when two stateful operators or sources share a name
  /// (records are matched by name on restore).
  std::string durable_checkpoint_dir;
  /// Storage backend for the durable store (nullptr = the real
  /// filesystem; the chaos tier injects a FaultyStorageEnv).
  StorageEnv* storage_env = nullptr;
  /// Committed epochs retained on disk (>= 1; clamped). Keep >= 2 so a
  /// torn newest epoch always has an intact fallback.
  int durable_retain_epochs = 2;
  /// Transient-failure retry backoff applied to every operator
  /// (capped exponential with seeded jitter; see RetryBackoffOptions).
  RetryBackoffOptions retry_backoff;
  /// Batch execution path (DESIGN.md §11): elements a source accumulates
  /// into one TupleBatch before emitting it downstream; sizes > 1 also
  /// make every placed queue deliver each drained run as a single
  /// ReceiveBatch call. 1 (the default) keeps the per-tuple path
  /// everywhere. Batches always split at punctuations (EOS, epoch
  /// barriers); alignment buffers them whole and fault hooks vote per
  /// element inside them, so overload accounting and checkpoint semantics
  /// are unchanged.
  size_t emit_batch_size = 1;
  /// Columnar batch layer (DESIGN.md §17): with emit_batch_size > 1,
  /// sources scatter accumulated elements into typed ColumnarBatches
  /// (contiguous column vectors + per-batch string arena) and unbounded
  /// batch-delivery queues transport each batch as one boxed item. Each
  /// batch carries its schema; an operator whose AcceptsColumnar takes it
  /// (typed Selection/Map, Projection, tumbling aggregates, the hash
  /// join, counting and latency sinks, unions) processes the typed columns
  /// directly. Everything else — and any operator with a fault hook, seq
  /// stamping, or a blocked barrier channel — materializes back to rows
  /// at its door, so results are byte-for-byte identical to the row-wise
  /// path.
  bool columnar = false;

  bool operator==(const EngineOptions&) const = default;
};

class StreamEngine {
 public:
  /// The graph must stay alive for the engine's lifetime and must be
  /// queue-free when first configured.
  explicit StreamEngine(QueryGraph* graph);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Inserts queues and builds (but does not start) the executors.
  Status Configure(const EngineOptions& options);

  /// Starts all partition workers. Sources are driven by the caller
  /// (e.g. workload::RateSource) and may start before or after this.
  Status Start();

  /// Cold restart (DESIGN.md §16): restores the newest intact epoch from
  /// the configured durable checkpoint directory into the freshly
  /// configured, not-yet-started graph. Sources are rewound to the epoch
  /// boundary and armed to swallow the already-committed input prefix, so
  /// re-driving the full deterministic input resumes with exact result
  /// identity. Returns the restored epoch (0 = empty store, fresh start).
  /// Call after Configure and before Start.
  Result<uint64_t> ColdRestart();

  /// Blocks until every sink has seen EOS and every partition has fully
  /// drained, then stops the workers. If any operator fails mid-run the
  /// wait ends early: the engine cancels blocked producers, stops the
  /// workers, and returns — the error is surfaced via RunResult().
  void WaitUntilFinished();

  /// Bounded variant; returns false on timeout (workers keep running; a
  /// partition/queue-depth snapshot is logged for diagnosis). Returns true
  /// when the run ended — normally or by operator failure (check
  /// RunResult()).
  bool WaitUntilFinishedFor(Duration timeout);

  /// Stops partition workers without requiring completion.
  void Stop();

  /// Runtime re-configuration; see the class comment for the safety
  /// contract of structural switches. Refusals return a structured Status
  /// naming the blocking condition (not configured / checkpointing armed /
  /// recovery in flight) — the SLO controller drives this path
  /// programmatically and logs the message verbatim.
  Status SwitchTo(const EngineOptions& options);

  // -- Runtime actuation hooks (src/control/ SLO controller) ---------------

  /// Resizes the level-3 slot pool at runtime (kHmts only; rung 1 of the
  /// degradation ladder). Safe while running and while recovery is armed.
  /// Persists into options() so recovery rebuilds keep the new size.
  Status SetMaxRunningThreads(int max_running);

  /// Changes the emit batch size live (rung 2): sources apply the new size
  /// at their next Push (via Source::RequestEmitBatchSize) and every
  /// placed queue's downstream delivery granularity follows. Safe while
  /// running; per-tuple and batch delivery are result-identical.
  Status SetEmitBatchSizeLive(size_t batch_size);

  /// Flips the overload policy of every bounded placed queue live
  /// (rung 4; kBlock <-> kShedNewest only). Fails — naming the queue —
  /// if any queue refuses (unbounded, or a kShedOldest configuration).
  Status SetOverloadPolicyLive(OverloadPolicy policy);

  /// True while AttemptRecovery is rebuilding the run (pause, restore,
  /// restart, replay). The controller suspends actuation during this
  /// window and resumes after the restore.
  bool recovering() const {
    return recovering_.load(std::memory_order_acquire);
  }

  /// Installs a callback whose text is appended to DiagnosticSnapshot()
  /// and to watchdog stall reports (via the level-3 scheduler's stall
  /// annotator, re-applied across executor rebuilds). The controller
  /// registers its rung/state line here. nullptr detaches.
  void SetDiagnosticAnnotator(std::function<std::string()> annotator);

  /// Removes every queue from the graph (queues must be drained),
  /// restoring the logical queue-free topology. Called automatically by
  /// structural SwitchTo.
  Status Deconfigure();

  /// Deconfigures and resets all node state so the same logical graph can
  /// be re-run from scratch (used when comparing modes on one graph).
  Status ResetForRerun();

  // -- Introspection ------------------------------------------------------

  const EngineOptions& options() const { return options_; }
  bool configured() const { return configured_; }
  bool started() const { return started_; }

  /// The run's outcome so far: Ok while healthy; otherwise the *first*
  /// operator failure, prefixed with the failing operator's name. Never
  /// aborts the process — robustness runs inspect this after the wait.
  Status RunResult() const { return run_status_.first(); }
  RunStatus* run_status() { return &run_status_; }

  /// Per-partition snapshot (queue depths, drained counts, last-scheduled
  /// queue) of the current configuration. Logged on wait timeouts; exposed
  /// for tests and external diagnostics.
  std::string DiagnosticSnapshot();

  /// Total elements shed across all bounded queues (both policies).
  int64_t DroppedElements() const;

  const std::vector<QueueOp*>& queues() const { return queues_; }

  /// Total elements currently buffered in queues ("memory usage" in the
  /// paper's Figures 9).
  size_t QueuedElements() const;

  /// Number of worker threads the current configuration uses.
  size_t WorkerThreadCount() const;

  /// The executor of every scheduled mode (kDirect, kGts, kOts, kHmts);
  /// nullptr under kSourceDriven or before Configure. Its partitions take
  /// level-3 slots only under kHmts, but its ThreadScheduler's watchdog
  /// (stall_events, stall annotator) works in every scheduled mode.
  HmtsExecutor* hmts() { return hmts_.get(); }

  /// The partitioning used by the last kHmts configuration.
  const Partitioning* partitioning() const { return partitioning_.get(); }

  /// Present only when checkpoint_epoch_interval > 0.
  RecoveryManager* recovery() { return recovery_.get(); }
  const RecoveryManager* recovery() const { return recovery_.get(); }

 private:
  /// (from, to) edges that must receive a queue for `options`.
  Status ComputeQueueEdges(const EngineOptions& options,
                           std::vector<std::pair<Node*, Operator*>>* edges);
  Status BuildExecutors(const EngineOptions& options);
  bool AllPartitionsDone() const;
  void CollectSinks();
  /// Failure teardown: unblocks kBlock producers (so no feeding thread
  /// stays wedged behind a partition that will never drain) and stops the
  /// workers.
  void AbortOnFailure();

  /// One sink+partition wait pass (nullptr deadline = unbounded).
  enum class WaitOutcome { kFinished, kFailed, kTimedOut };
  WaitOutcome WaitOnce(const TimePoint* deadline);
  /// Rewind-and-replay after a permanent operator failure: quiesce
  /// sources, stop workers, restore the last committed epoch, rebuild and
  /// restart the executors, replay the retained source suffix, resume.
  /// Returns false when recovery is unavailable (not armed, attempt
  /// budget exhausted, or a replay buffer overflowed) — the caller then
  /// takes the abort path.
  bool AttemptRecovery();

  QueryGraph* graph_;
  RunStatus run_status_;
  EngineOptions options_;
  bool configured_ = false;
  bool started_ = false;
  std::atomic<bool> recovering_{false};
  /// Serializes the live actuation hooks against AttemptRecovery's flag
  /// raise, so an in-flight actuation always completes before the
  /// executor teardown starts (and later ones refuse cleanly).
  std::mutex actuation_mutex_;
  std::function<std::string()> diagnostic_annotator_;

  std::vector<QueueOp*> queues_;
  std::vector<Sink*> sinks_;
  std::unique_ptr<Partitioning> partitioning_;
  std::unique_ptr<RecoveryManager> recovery_;

  std::unique_ptr<HmtsExecutor> hmts_;
  int next_queue_id_ = 0;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_API_STREAM_ENGINE_H_
