// Human-readable runtime statistics reports.
//
// Snapshots the per-operator statistics of a query graph — processed and
// emitted counts, measured c(v), selectivity, d(v), busy time, queue
// occupancy — into an aligned table. Used by examples and ad-hoc
// debugging; the same numbers feed the placement algorithms.

#ifndef FLEXSTREAM_STATS_REPORT_H_
#define FLEXSTREAM_STATS_REPORT_H_

#include <string>
#include <vector>

#include "control/slo_controller.h"
#include "util/histogram.h"
#include "util/table.h"

namespace flexstream {

class QueryGraph;
class RecoveryManager;

/// One row per node: kind, name, arrivals, processed, emitted, measured
/// cost (us), selectivity, inter-arrival (us), busy time (ms), and for
/// queues their current/peak sizes plus elements dropped by the overload
/// policy; every operator also reports transient-fault retries absorbed.
Table BuildStatsTable(const QueryGraph& graph);

/// Source batch flushes by cause, one row per source that emitted a batch:
/// total batches, then the count per FlushReason (full, linger, barrier,
/// close, schema_drift, other). Linger flushes are partial batches cut by
/// the kBatchLinger bound — the latency side of batching. Empty (headers
/// only) when no source batches (emit_batch_size 1).
Table BuildSourceFlushTable(const QueryGraph& graph);

/// Overload/failure counters, one row per *bounded* queue: policy, budget,
/// dropped-newest/oldest, kBlock waits and timed-out (overrun) waits.
/// Empty (headers only) when no queue is bounded. Same Table type as
/// BuildStatsTable, so it prints/CSV-exports identically.
Table BuildResilienceTable(const QueryGraph& graph);

/// One row per shard replica (operators created by ShardOperator,
/// api/shard.h), grouped by the original operator's name: elements routed
/// to the replica (arrivals), processed, emitted, and its input queue's
/// current/peak depth plus overload drops. Empty (headers only) when the
/// graph has no sharded operators.
Table BuildShardTable(const QueryGraph& graph);

/// One line per shard group summarizing routing skew:
/// "shard group '<name>': N replicas, M routed, imbalance R (max/mean)".
/// Empty string when the graph has no sharded operators.
std::string ShardImbalanceSummary(const QueryGraph& graph);

/// End-to-end latency percentiles, one row per LatencySink in the graph
/// (count, mean and p50/p95/p99/p999/max in microseconds) plus — when the
/// graph holds more than one latency sink — a final "(all)" row merging
/// every sink's histogram into the engine-wide distribution. Snapshots are
/// non-destructive, so the table can be printed mid-run (the watchdog's
/// partition snapshots use the same source). Empty (headers only) when the
/// graph has no LatencySink.
Table BuildLatencyTable(const QueryGraph& graph);

/// The engine-wide latency distribution: every LatencySink's histogram
/// merged. Empty histogram when the graph has no LatencySink.
Histogram MergedLatencyHistogram(const QueryGraph& graph);

/// The SLO controller's per-interval decision log as a table: one row per
/// control interval with the trigger, the ladder rung before/after, the
/// action taken (or hold), the actuator outcome, and the interval's raw +
/// smoothed p99, backlog, and shed count. Pass SloController::decisions().
Table BuildControlTable(const std::vector<ControlDecision>& decisions);

/// Checkpoint/recovery counters (metric/value rows): committed epoch,
/// epochs committed, snapshots taken, committed state elements, replay
/// buffer depth/peak/truncation, replayed elements, and the recovery
/// attempt ledger. Only meaningful for an engine configured with
/// checkpoint_epoch_interval > 0 (see StreamEngine::recovery()).
Table BuildRecoveryTable(const RecoveryManager& recovery);

/// Durable-checkpoint counters (metric/value rows): epochs persisted,
/// write failures, bytes written (total and last epoch), last write
/// latency, GC'd files, corrupt epochs skipped on load, on-disk manifest
/// depth and newest epoch, and persist (encode/write) failures. Empty
/// (headers only) when the manager has no durable store configured.
Table BuildDurabilityTable(const RecoveryManager& recovery);

/// Convenience: the table rendered to a string.
std::string StatsReport(const QueryGraph& graph);

}  // namespace flexstream

#endif  // FLEXSTREAM_STATS_REPORT_H_
