// Differential correctness harness: scheduler-oblivious result checking.
//
// The paper's core semantic claim (Sections 3-4) is that scheduling
// architecture — GTS, OTS, HMTS under any level-2 strategy — changes
// performance but never results. This harness machine-checks that claim:
// one seeded random executable graph (testing/executable_dag.h) is run to
// completion under a matrix of execution configurations, and every
// configuration's per-sink output is compared against a single-threaded
// direct-interoperability golden run:
//
//  * every sink: the sorted multiset of output tuples must be identical
//    (the schedule-independent notion of equality for merged streams);
//  * sinks whose upstream is a pure chain from one source: the *exact
//    output sequence* must match (FIFO queues and single-threaded
//    partitions make any deviation a reordering bug).
//
// On a mismatch the harness shrinks the scenario (fewer nodes, fewer
// elements) while the failure reproduces, then dumps the failing graph as
// DOT plus a replay file; FLEXSTREAM_DIFF_REPLAY=<file> re-runs exactly
// that scenario (see tests/harness/flexstream_differential_test.cc).

#ifndef FLEXSTREAM_TESTING_DIFFERENTIAL_H_
#define FLEXSTREAM_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "testing/chaos.h"
#include "testing/executable_dag.h"

namespace flexstream {

/// A reproducible differential scenario: every RNG involved (topology,
/// operator choice, input stream) derives from `seed`.
struct DiffSpec {
  uint64_t seed = 1;
  int node_count = 16;
  int source_count = 2;
  /// Probability that a non-source node takes a second producer; 0 yields
  /// a tree, where every sink is sequence-checked.
  double second_input_probability = 0.15;
  /// Data elements fed across all sources.
  int feed_count = 600;
  /// Cap on the per-element synthetic CPU burn (microseconds).
  double max_burn_micros = 3.0;
};

/// One execution configuration of the matrix.
struct DiffConfig {
  ExecutionMode mode = ExecutionMode::kGts;
  StrategyKind strategy = StrategyKind::kFifo;
  PlacementKind placement = PlacementKind::kStallAvoiding;
  /// Ring slots per placed queue (EngineOptions::queue_ring_capacity): 2
  /// forces constant spillover, 0 takes every push through the locked
  /// path.
  size_t ring_capacity = QueueOp::kDefaultRingCapacity;
  /// Feed every element (and EOS) before starting the workers: queues
  /// absorb the whole stream, so the first drains run with full batches
  /// (burst arrival). The default feeds concurrently with execution.
  bool feed_before_start = false;
  /// Mutation testing only: injected into every placed queue after
  /// Configure. The harness must *fail* under any non-kNone fault.
  QueueOp::TestFault fault = QueueOp::TestFault::kNone;

  // -- Robustness dimensions (ISSUE 3) ------------------------------------

  /// Hard element budget per placed queue; 0 = unbounded. With kBlock the
  /// run must still match golden exactly (backpressure, no loss); with a
  /// shed policy the candidate's output must be a sub-multiset of golden
  /// and the queues' drop counters must account for the difference.
  size_t queue_max_elements = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;

  /// Seeded chaos injected after Configure (see testing/chaos.h):
  /// transient operator failures (absorbed by retry — results must stay
  /// identical), per-element delays, and lost queue wakeups (recovered by
  /// the idle-poll failsafe).
  double chaos_transient_rate = 0.0;
  double chaos_delay_rate = 0.0;
  int chaos_suppress_every_n = 0;
  uint64_t chaos_seed = 1;

  /// Enables the ThreadScheduler no-progress watchdog (any scheduled
  /// mode); chaos runs assert it stays clean (stall_events == 0).
  bool watchdog = false;

  /// Batch execution path (EngineOptions::emit_batch_size): sources bundle
  /// this many elements into one TupleBatch and queues deliver drained
  /// runs as single ReceiveBatch calls. Any size must leave results
  /// byte-identical to per-tuple execution — batching changes delivery
  /// granularity, never semantics.
  size_t emit_batch_size = 1;

  /// Columnar batch layer (EngineOptions::columnar, DESIGN.md §17):
  /// sources scatter accumulated elements into typed ColumnarBatches and
  /// operators with a columnar kernel run it, materializing back to rows
  /// at the columnar door. Meaningful only with
  /// emit_batch_size > 1. Results must stay byte-identical to the row-wise
  /// path — columnar changes representation, never semantics.
  bool columnar = false;

  /// Ragged batches: each source's linger bound (kBatchLinger) reads a
  /// seeded fake clock (seed chaos_seed + source index) that jumps past the
  /// bound at random reads, so sources flush partial batches at random
  /// positions. Batch boundaries are delivery granularity, never
  /// semantics: results must stay byte-identical. Meaningful only with
  /// emit_batch_size > 1; not supported with cold_restarts.
  bool ragged_batches = false;

  // -- Checkpoint/recovery dimensions (ISSUE 4) ---------------------------

  /// Elements per source between epoch barriers; 0 disables checkpointing.
  uint64_t checkpoint_epoch_interval = 0;
  /// Kill/revive chaos (see ChaosOptions::kill_operator): the named
  /// operator dies on its `chaos_kill_after`-th delivery, `chaos_kills`
  /// times; each death must be absorbed by epoch rewind + replay with the
  /// final output matching golden exactly.
  std::string chaos_kill_operator;
  int64_t chaos_kill_after = 0;
  int chaos_kills = 1;

  // -- Key-partitioned sharding dimensions (ISSUE 6, DESIGN.md §13) -------

  /// When > 0, RunUnderConfig rewrites the spec's graph after building it:
  /// the first Selection/Map in graph order is split into this many
  /// key-partitioned replicas behind a sequencing Router and re-merged
  /// (api/shard.h). The ordered merge keeps every exact-sequence oracle
  /// applicable; the golden run stays unsharded, so the comparison checks
  /// the split/merge rewrite itself.
  int shard_count = 0;
  /// Arrival-order merge instead of the sequence-restoring one: replica
  /// outputs interleave nondeterministically, so every sink demotes to the
  /// multiset oracle. Requires shard_count > 0.
  bool shard_unordered = false;
  /// Kill/revive chaos aimed at one shard replica (resolved to
  /// "<target>.shard<i>" after the rewrite, since the replica names do not
  /// exist before it). Requires shard_count > i and a checkpoint interval.
  /// -1 = disabled.
  int kill_shard_replica = -1;

  // -- Durable checkpoint / cold-restart dimensions (DESIGN.md §16) -------

  /// When > 0, RunUnderConfig runs the scenario as `cold_restarts + 1`
  /// engine *incarnations* sharing one on-disk checkpoint directory: each
  /// non-final incarnation feeds a prefix of the input, waits for a
  /// durable epoch commit, then tears the engine and graph down without
  /// closing the sources (the in-process equivalent of a process death —
  /// all volatile state is gone, only the store survives). Every later
  /// incarnation rebuilds the graph from scratch, ColdRestart()s from the
  /// newest intact on-disk epoch, and re-drives the full deterministic
  /// input (sources swallow their committed prefix via the durable
  /// cursors); the final incarnation runs to EOS and must match golden
  /// exactly. Requires checkpoint_epoch_interval > 0.
  int cold_restarts = 0;
  /// Disk fault injected into the durable store for the whole scenario
  /// (one FaultyStorageEnv spans every incarnation, so byte budgets
  /// accumulate across restarts): "" = none, "torn-write",
  /// "corrupt-epoch", "enospc", "fsync-fail". Corrupted or unpersisted
  /// epochs force ColdRestart to fall back to an earlier intact epoch (or
  /// a fresh start) — the final output must still match golden exactly.
  /// Requires cold_restarts > 0.
  std::string disk_fault;

  // -- Closed-loop SLO control dimension (ISSUE 8, DESIGN.md §15) ---------

  /// Attaches an SloController to the engine for the duration of the run,
  /// fed by a deterministic square-wave metrics fake that alternates
  /// breach and calm phases every few control intervals (2ms apart). The
  /// controller repeatedly escalates and de-escalates rungs 1-2 — live
  /// thread-pool resizes (kHmts; structurally refused elsewhere, which
  /// exercises the lever-retirement path) and live emit-batch-size
  /// changes — against the *real* engine mid-run. Shedding and resharding
  /// stay disabled, so the run must remain result-identical to golden:
  /// elastic actuation is invisible to semantics.
  bool slo_controller = false;

  bool chaos_enabled() const {
    return chaos_transient_rate > 0.0 || chaos_delay_rate > 0.0 ||
           chaos_suppress_every_n > 0 || !chaos_kill_operator.empty() ||
           kill_shard_replica >= 0;
  }

  /// "gts+chain+auto" style identifier (placement only for HMTS, ring
  /// capacity only when non-default, "+burst"/"+fault:..."/"+bound..."/
  /// "+chaos..."/"+batchN" when set).
  std::string Name() const;
};

/// The golden configuration: single-threaded, queue-free DI execution.
DiffConfig GoldenConfig();

/// The standard matrix: {GTS, OTS, HMTS} crossed with the level-2
/// strategies (FIFO, round-robin, Chain, Segment where applicable), the
/// ring vs ring-less (ring capacity 0) queues, a tiny-ring spillover variant,
/// burst arrival, and the HMTS placement algorithms; plus single-threaded
/// kDirect; plus the batch-delivery axis (emit_batch_size in {8, 64})
/// crossed with the queue-path variants, the columnar axis, and the
/// ragged-batch axis ({GTS, OTS, HMTS} x {row, columnar}).
std::vector<DiffConfig> DefaultConfigMatrix();

/// Per-sink outputs of one run, in sink construction order.
struct SinkOutputs {
  std::vector<std::vector<Tuple>> per_sink;
  /// Mirrors ExecutableDag::order_checked.
  std::vector<bool> order_checked;
  /// False when the run timed out instead of draining to EOS.
  bool completed = true;
  /// Elements shed by bounded queues during the run (0 when unbounded or
  /// under kBlock).
  int64_t dropped = 0;
  /// Transient-fault retries absorbed across all operators.
  int64_t fault_retries = 0;
  /// Watchdog stall events observed (0 on a deadlock-free run).
  int64_t watchdog_stalls = 0;
  /// The engine's RunResult() — Ok on a healthy run.
  Status run_result = Status::Ok();
  /// Recovery accounting (checkpoint_epoch_interval > 0 only).
  int recoveries = 0;
  uint64_t committed_epoch = 0;
  int64_t replayed_elements = 0;
  /// Partial batches the sources emitted on the linger bound.
  int64_t linger_flushes = 0;
};

/// Builds the spec's graph and runs it to completion under `config`.
SinkOutputs RunUnderConfig(const DiffSpec& spec, const DiffConfig& config);

/// Empty string when candidate matches golden (multiset per sink, exact
/// sequence for order-checked sinks); otherwise a human-readable
/// description of the first difference. A candidate with dropped > 0
/// (declared load shedding) is compared modulo sheds: each sink's output
/// must be a sub-multiset of golden's (order-checked sinks: a
/// subsequence), so every shortfall is attributable to a declared shed;
/// with dropped == 0 the comparison is exact as before.
std::string CompareOutputs(const SinkOutputs& golden,
                           const SinkOutputs& candidate);

/// The chaos sweep matrix: {GTS, OTS, HMTS} x {FIFO, RR, Chain, Segment}
/// under transient faults + delays + lost wakeups, plus bounded-queue
/// variants for each overload policy. Used by check-chaos.
std::vector<DiffConfig> ChaosConfigMatrix();

/// The kill/revive recovery sweep (check-recovery): checkpointing armed,
/// `kill_operator` dies on its `kill_after`-th delivery, and the run must
/// recover via epoch rewind + replay and still match golden *exactly* —
/// the CollectingSink truncate-on-restore gives exact epoch+sequence
/// dedup, so no relaxed compare is needed. Covers {GTS, OTS, HMTS} x
/// {FIFO, Chain}, kDirect, ring-less queues, bounded kBlock
/// queues, a double-kill variant, batch delivery (row and columnar), and
/// the ragged-batch axis ({GTS, OTS, HMTS} x {row, columnar}). All queues stay unbounded or
/// kBlock so nothing is shed and the exact oracle applies.
std::vector<DiffConfig> RecoveryConfigMatrix(const std::string& kill_operator,
                                             int64_t kill_after);

/// The sharding sweep (check-shard): the first Selection/Map of the spec's
/// graph rewritten into {2, 4} key-partitioned replicas, across
/// {GTS, OTS, HMTS} x batch {1, 64} with the ordered merge (every
/// exact-sequence oracle stays armed), two arrival-order variants
/// (multiset compare), and one checkpointed kill-one-replica recovery
/// configuration.
std::vector<DiffConfig> ShardConfigMatrix();

/// The durable-checkpoint sweep (check-durability): cold restarts across
/// {GTS, OTS, HMTS, kDirect}, ring-less queues, batch delivery,
/// a double-restart variant (two process deaths, two disk restores), and
/// one configuration per injected disk fault (torn write, at-rest
/// corruption, ENOSPC, fsync failure — each must degrade to an earlier
/// intact epoch or a fresh start, never to a wrong answer). Every
/// configuration must match golden *exactly* after the final restart.
std::vector<DiffConfig> DurabilityConfigMatrix();

struct DiffFailure {
  DiffSpec spec;  // shrunk when shrinking was enabled
  DiffConfig config;
  std::string message;
  /// Artifact paths; empty when dumping was disabled or failed.
  std::string dot_path;
  std::string replay_path;
};

struct DiffReport {
  bool ok = true;
  std::vector<DiffFailure> failures;
  /// Configurations compared (for coverage accounting).
  size_t configs_run = 0;
};

struct DiffRunOptions {
  bool shrink = true;
  /// Re-runs per shrink candidate; a candidate counts as failing if any
  /// attempt mismatches (thread schedules vary between attempts).
  int shrink_retries = 2;
  /// Where DOT + replay artifacts land. Empty: $FLEXSTREAM_DIFF_ARTIFACT_DIR,
  /// falling back to "diff_failures" under the current directory.
  std::string artifact_dir;
};

/// Runs golden once, then every configuration; shrinks and dumps each
/// failure per `options`.
DiffReport RunDifferential(const DiffSpec& spec,
                           const std::vector<DiffConfig>& configs,
                           const DiffRunOptions& options = {});

/// Shrinks a failing (spec, config): repeatedly halves node and feed
/// counts while the mismatch still reproduces within `retries` attempts.
DiffSpec ShrinkFailingSpec(const DiffSpec& spec, const DiffConfig& config,
                           int retries);

/// Replay files: a commented key=value rendering of (spec, config).
std::string FormatReplay(const DiffSpec& spec, const DiffConfig& config);
bool ParseReplay(const std::string& text, DiffSpec* spec, DiffConfig* config,
                 std::string* error);

/// Builds the spec's ExecutableDag (used for DOT dumps and inspection).
ExecutableDag BuildDagForSpec(const DiffSpec& spec);

}  // namespace flexstream

#endif  // FLEXSTREAM_TESTING_DIFFERENTIAL_H_
