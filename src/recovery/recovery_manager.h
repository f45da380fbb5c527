// Orchestrates checkpointing and failure recovery for one engine run.
//
// Arm() wires a configured query graph for checkpointing: every source is
// armed to inject epoch barriers and record its input into a replay
// buffer; every non-queue operator reports alignments/closes to the
// checkpoint coordinator. On a permanent failure the StreamEngine drives
// the recovery sequence (see StreamEngine::AttemptRecovery): pause
// sources -> stop executors -> RestoreCommittedState -> rebuild/start
// executors -> ReplaySources -> resume. Attempts are bounded; a truncated
// replay buffer or an exhausted budget falls back to the abort path.

#ifndef FLEXSTREAM_RECOVERY_RECOVERY_MANAGER_H_
#define FLEXSTREAM_RECOVERY_RECOVERY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "recovery/checkpoint_coordinator.h"
#include "recovery/replay_buffer.h"
#include "recovery/snapshot_store.h"
#include "util/status.h"

namespace flexstream {

class QueryGraph;
class Source;
class StorageEnv;

class RecoveryManager {
 public:
  struct Options {
    /// Elements per source between epoch barriers (>0; the engine only
    /// constructs a manager when checkpointing is enabled).
    uint64_t epoch_interval = 0;
    /// Recovery attempts before falling back to abort.
    int max_attempts = 3;
    /// Replay-buffer element cap per source (0 = unbounded).
    size_t replay_buffer_max_elements = 1 << 20;
    /// Durable checkpoints (DESIGN.md §16): non-empty = persist every
    /// committed epoch's snapshots + replay cursors to this directory via
    /// a SnapshotStore, enabling RestoreFromDisk after a process death.
    std::string durable_dir;
    /// Storage backend for the durable store (nullptr = local POSIX env;
    /// tests inject a chaos FaultyStorageEnv).
    StorageEnv* storage_env = nullptr;
    /// Committed epochs retained on disk (>=1); older ones are GC'd.
    int durable_retain_epochs = 2;
  };

  explicit RecoveryManager(Options options);
  ~RecoveryManager();

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Installs epoch injection, replay buffers, and alignment callbacks on
  /// `graph` (must already contain its placed queues). Call while
  /// quiescent (engine Configure). With a durable_dir configured, also
  /// opens the snapshot store and validates that operator/source names are
  /// unique (records are matched by name on restore) — failing with a
  /// Status naming the duplicate rather than arming a graph whose records
  /// could not be told apart.
  Status Arm(QueryGraph* graph);

  /// Removes everything Arm installed (engine Deconfigure).
  void Disarm();

  CheckpointCoordinator& coordinator() { return coordinator_; }
  const CheckpointCoordinator& coordinator() const { return coordinator_; }

  /// True when another recovery attempt is allowed: budget left and no
  /// replay buffer overflowed.
  bool CanAttempt() const;

  /// Counts an attempt against the budget. Returns false when none left.
  bool BeginAttempt();
  /// Records a completed (resumed) recovery and its wall time.
  void FinishAttempt(int64_t latency_micros);

  /// Quiesces the sources: takes the gate exclusively, waiting out every
  /// in-flight flush/Close. Drivers keep accumulating into their pending
  /// batches meanwhile; their next flush waits. Balanced by ResumeSources.
  void PauseSources();
  void ResumeSources();

  /// Restores the last committed epoch into the quiesced graph: resets
  /// every node and re-installs committed snapshots. The sources' pending
  /// batches and epoch counters are the drivers' and stay. Call between
  /// PauseSources and ResumeSources, with executors stopped.
  void RestoreCommittedState();

  /// Re-emits the retained post-epoch batches (and barriers) of every
  /// source from the calling thread. Executors must be running again; the
  /// gate must still be held, so live flushes land after the replay.
  void ReplaySources();

  /// Cold restart (DESIGN.md §16): loads the newest intact epoch from the
  /// durable store into the quiesced, freshly armed graph — decodes every
  /// operator record (matched by name), seeds the coordinator's committed
  /// state, rewinds each source to the epoch boundary and installs its
  /// resume-skip cursor. Returns the restored epoch; 0 when the store is
  /// empty (fresh start); an error when the store holds no intact epoch or
  /// a record doesn't match the graph. Call before Start, with executors
  /// not yet running.
  Result<uint64_t> RestoreFromDisk();

  /// The durable snapshot store (nullptr when not configured).
  SnapshotStore* snapshot_store() { return store_.get(); }
  const SnapshotStore* snapshot_store() const { return store_.get(); }

  /// First failing replay-buffer truncation status (Ok when all intact) —
  /// names the source and first unreplayable epoch.
  Status replay_truncation_status() const;

  /// Durable persist failures (encode or store write) — the run continues,
  /// cold restart just falls back to the last epoch that did persist.
  int64_t persist_failures() const {
    return persist_failures_.load(std::memory_order_relaxed);
  }

  // Stats.
  int attempts() const { return attempts_.load(std::memory_order_relaxed); }
  int completed_recoveries() const {
    return completed_.load(std::memory_order_relaxed);
  }
  int64_t last_recovery_latency_micros() const {
    return last_latency_micros_.load(std::memory_order_relaxed);
  }
  int64_t replayed_elements() const;
  size_t replay_depth() const;
  size_t replay_peak_depth() const;
  bool any_buffer_truncated() const;
  const Options& options() const { return options_; }

 private:
  /// Encodes + writes committed epoch `epoch` to the durable store.
  /// Failures are logged and counted, never fatal to the run.
  void PersistEpoch(uint64_t epoch);
  /// The restore sequence shared by live recovery and cold restart: resets
  /// every node, re-installs the coordinator's committed snapshots and
  /// fast-forwards every operator's alignment baseline to that epoch.
  /// Graph quiescent.
  void ResetToCommittedEpoch();

  const Options options_;
  QueryGraph* graph_ = nullptr;
  std::vector<Source*> sources_;
  std::vector<std::unique_ptr<ReplayBuffer>> buffers_;
  CheckpointCoordinator coordinator_;
  std::unique_ptr<SnapshotStore> store_;
  std::atomic<int64_t> persist_failures_{0};

  // Source pause gate: sources take it shared per flush/Close, recovery
  // exclusively. unique_lock stored so Pause/Resume can span calls.
  std::shared_mutex gate_;
  std::unique_ptr<std::unique_lock<std::shared_mutex>> pause_lock_;

  std::atomic<int> attempts_{0};
  std::atomic<int> completed_{0};
  std::atomic<int64_t> last_latency_micros_{0};
};

}  // namespace flexstream

#endif  // FLEXSTREAM_RECOVERY_RECOVERY_MANAGER_H_
