#include "stats/report.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "graph/query_graph.h"
#include "operators/latency_sink.h"
#include "operators/operator.h"
#include "operators/source.h"
#include "queue/queue_op.h"
#include "recovery/recovery_manager.h"

namespace flexstream {

Table BuildStatsTable(const QueryGraph& graph) {
  Table t({"node", "kind", "arrivals", "processed", "emitted", "cost_us",
           "selectivity", "interarrival_us", "busy_ms", "queue_now",
           "queue_peak", "dropped", "retries"});
  for (const Node* node : graph.nodes()) {
    const OpStats& s = node->stats();
    const double d = s.InterarrivalMicros();
    std::string queue_now = "-";
    std::string queue_peak = "-";
    std::string dropped = "-";
    std::string retries = "-";
    if (const QueueOp* q = dynamic_cast<const QueueOp*>(node)) {
      queue_now = Table::Int(static_cast<int64_t>(q->Size()));
      queue_peak = Table::Int(static_cast<int64_t>(q->PeakSize()));
      if (q->bounded()) dropped = Table::Int(q->dropped());
    }
    if (const Operator* op = dynamic_cast<const Operator*>(node)) {
      if (op->fault_retries() > 0) retries = Table::Int(op->fault_retries());
    }
    t.AddRow({node->name(), NodeKindToString(node->kind()),
              Table::Int(s.arrivals()), Table::Int(s.processed()),
              Table::Int(s.emitted()), Table::Num(s.CostMicros(), 2),
              Table::Num(s.Selectivity(), 3),
              std::isfinite(d) ? Table::Num(d, 1) : std::string("inf"),
              Table::Num(s.BusyMicros() / 1000.0, 1), queue_now,
              queue_peak, dropped, retries});
  }
  return t;
}

Table BuildSourceFlushTable(const QueryGraph& graph) {
  std::vector<std::string> headers = {"source", "batches"};
  for (int r = 0; r < kFlushReasonCount; ++r) {
    headers.push_back(FlushReasonToString(static_cast<FlushReason>(r)));
  }
  Table t(headers);
  for (const Node* node : graph.nodes()) {
    const auto* source = dynamic_cast<const Source*>(node);
    if (source == nullptr) continue;
    std::vector<std::string> row = {source->name(), ""};
    int64_t batches = 0;
    for (int r = 0; r < kFlushReasonCount; ++r) {
      const int64_t n = source->flushes(static_cast<FlushReason>(r));
      batches += n;
      row.push_back(Table::Int(n));
    }
    if (batches == 0) continue;
    row[1] = Table::Int(batches);
    t.AddRow(row);
  }
  return t;
}

Table BuildResilienceTable(const QueryGraph& graph) {
  Table t({"queue", "policy", "max_elements", "dropped_newest",
           "dropped_oldest", "block_waits", "block_timeouts"});
  for (const Node* node : graph.nodes()) {
    const QueueOp* q = dynamic_cast<const QueueOp*>(node);
    if (q == nullptr || !q->bounded()) continue;
    t.AddRow({q->name(), OverloadPolicyToString(q->overload_policy()),
              Table::Int(static_cast<int64_t>(q->max_elements())),
              Table::Int(q->dropped_newest()), Table::Int(q->dropped_oldest()),
              Table::Int(q->block_waits()), Table::Int(q->block_timeouts())});
  }
  return t;
}

Table BuildShardTable(const QueryGraph& graph) {
  Table t({"group", "replica", "routed", "processed", "emitted", "queue_now",
           "queue_peak", "dropped"});
  for (const Node* node : graph.nodes()) {
    const auto* op = dynamic_cast<const Operator*>(node);
    if (op == nullptr || op->shard_index() < 0) continue;
    const OpStats& s = node->stats();
    std::string queue_now = "-";
    std::string queue_peak = "-";
    std::string dropped = "-";
    // The replica's input queue(s): engine-inserted between the split
    // router and the replica when they land in different partitions.
    int64_t now = 0;
    int64_t peak = 0;
    int64_t drops = 0;
    bool has_queue = false;
    bool has_bounded = false;
    for (const Node::InEdge& in : node->inputs()) {
      const auto* q = dynamic_cast<const QueueOp*>(in.source);
      if (q == nullptr) continue;
      has_queue = true;
      now += static_cast<int64_t>(q->Size());
      peak += static_cast<int64_t>(q->PeakSize());
      if (q->bounded()) {
        has_bounded = true;
        drops += q->dropped();
      }
    }
    if (has_queue) {
      queue_now = Table::Int(now);
      queue_peak = Table::Int(peak);
      if (has_bounded) dropped = Table::Int(drops);
    }
    t.AddRow({op->shard_group(), node->name(), Table::Int(s.arrivals()),
              Table::Int(s.processed()), Table::Int(s.emitted()), queue_now,
              queue_peak, dropped});
  }
  return t;
}

std::string ShardImbalanceSummary(const QueryGraph& graph) {
  // Group name -> per-replica routed counts, in replica index order (the
  // graph holds replicas in creation order).
  std::map<std::string, std::vector<int64_t>> groups;
  for (const Node* node : graph.nodes()) {
    const auto* op = dynamic_cast<const Operator*>(node);
    if (op == nullptr || op->shard_index() < 0) continue;
    groups[op->shard_group()].push_back(node->stats().arrivals());
  }
  std::ostringstream os;
  for (const auto& [group, counts] : groups) {
    int64_t total = 0;
    int64_t max = 0;
    for (int64_t c : counts) {
      total += c;
      max = std::max(max, c);
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(counts.size());
    const double imbalance =
        mean > 0.0 ? static_cast<double>(max) / mean : 1.0;
    os << "shard group '" << group << "': " << counts.size() << " replicas, "
       << total << " routed, imbalance " << Table::Num(imbalance, 2)
       << " (max/mean)\n";
  }
  return os.str();
}

Table BuildLatencyTable(const QueryGraph& graph) {
  Table t({"sink", "count", "mean_us", "p50_us", "p95_us", "p99_us",
           "p999_us", "max_us"});
  Histogram merged;
  size_t sinks = 0;
  auto add_row = [&t](const std::string& name, const Histogram& h) {
    t.AddRow({name, Table::Int(h.count()), Table::Num(h.mean(), 1),
              Table::Num(h.Percentile(0.50), 0),
              Table::Num(h.Percentile(0.95), 0),
              Table::Num(h.Percentile(0.99), 0),
              Table::Num(h.Percentile(0.999), 0), Table::Num(h.max(), 0)});
  };
  for (const Node* node : graph.nodes()) {
    const auto* sink = dynamic_cast<const LatencySink*>(node);
    if (sink == nullptr) continue;
    const Histogram h = sink->SnapshotHistogram();
    add_row(sink->name(), h);
    merged.Merge(h);
    ++sinks;
  }
  if (sinks > 1) add_row("(all)", merged);
  return t;
}

Histogram MergedLatencyHistogram(const QueryGraph& graph) {
  Histogram merged;
  for (const Node* node : graph.nodes()) {
    if (const auto* sink = dynamic_cast<const LatencySink*>(node)) {
      merged.Merge(sink->SnapshotHistogram());
    }
  }
  return merged;
}

Table BuildRecoveryTable(const RecoveryManager& recovery) {
  Table t({"metric", "value"});
  const CheckpointCoordinator& coord = recovery.coordinator();
  t.AddRow({"epoch_interval",
            Table::Int(static_cast<int64_t>(
                recovery.options().epoch_interval))});
  t.AddRow({"committed_epoch",
            Table::Int(static_cast<int64_t>(coord.committed_epoch()))});
  t.AddRow({"epochs_committed", Table::Int(coord.epochs_committed())});
  t.AddRow({"snapshots_taken", Table::Int(coord.snapshots_taken())});
  t.AddRow(
      {"committed_state_elements", Table::Int(coord.committed_state_elements())});
  t.AddRow({"replay_depth",
            Table::Int(static_cast<int64_t>(recovery.replay_depth()))});
  t.AddRow({"replay_peak_depth",
            Table::Int(static_cast<int64_t>(recovery.replay_peak_depth()))});
  t.AddRow({"replay_truncated",
            Table::Int(recovery.any_buffer_truncated() ? 1 : 0)});
  t.AddRow({"replayed_elements", Table::Int(recovery.replayed_elements())});
  t.AddRow({"recovery_attempts", Table::Int(recovery.attempts())});
  t.AddRow(
      {"recoveries_completed", Table::Int(recovery.completed_recoveries())});
  t.AddRow({"last_recovery_latency_us",
            Table::Int(recovery.last_recovery_latency_micros())});
  return t;
}

Table BuildDurabilityTable(const RecoveryManager& recovery) {
  Table t({"metric", "value"});
  const SnapshotStore* store = recovery.snapshot_store();
  if (store == nullptr) return t;
  const SnapshotStoreStats stats = store->stats();
  const std::vector<uint64_t> epochs = store->manifest_epochs();
  t.AddRow({"epochs_persisted", Table::Int(stats.epochs_written)});
  t.AddRow({"write_failures", Table::Int(stats.write_failures)});
  t.AddRow({"bytes_written", Table::Int(stats.bytes_written)});
  t.AddRow({"last_epoch_bytes", Table::Int(stats.last_epoch_bytes)});
  t.AddRow({"last_write_us", Table::Int(stats.last_write_micros)});
  t.AddRow({"gc_removed_files", Table::Int(stats.gc_removed_files)});
  t.AddRow(
      {"corrupt_epochs_skipped", Table::Int(stats.corrupt_epochs_skipped)});
  t.AddRow({"manifest_epochs",
            Table::Int(static_cast<int64_t>(epochs.size()))});
  t.AddRow({"newest_epoch_on_disk",
            Table::Int(epochs.empty()
                           ? 0
                           : static_cast<int64_t>(epochs.back()))});
  t.AddRow({"persist_failures", Table::Int(recovery.persist_failures())});
  return t;
}

Table BuildControlTable(const std::vector<ControlDecision>& decisions) {
  Table t({"interval", "trigger", "rung", "action", "outcome", "p99_us",
           "smoothed_us", "backlog", "shed"});
  for (const ControlDecision& d : decisions) {
    const std::string rung =
        d.rung_before == d.rung_after
            ? std::to_string(d.rung_before)
            : std::to_string(d.rung_before) + "->" +
                  std::to_string(d.rung_after);
    t.AddRow({Table::Int(d.interval), d.trigger, rung, d.action,
              d.outcome.ok() ? "OK" : d.outcome.ToString(),
              Table::Num(d.p99_micros, 0), Table::Num(d.smoothed_p99, 0),
              Table::Int(static_cast<int64_t>(d.backlog)),
              Table::Int(d.dropped_delta)});
  }
  return t;
}

std::string StatsReport(const QueryGraph& graph) {
  std::ostringstream os;
  BuildStatsTable(graph).Print(os);
  Table flushes = BuildSourceFlushTable(graph);
  if (flushes.row_count() > 0) {
    os << "\n";
    flushes.Print(os);
  }
  Table shards = BuildShardTable(graph);
  if (shards.row_count() > 0) {
    os << "\n";
    shards.Print(os);
    os << ShardImbalanceSummary(graph);
  }
  Table latency = BuildLatencyTable(graph);
  if (latency.row_count() > 0) {
    os << "\n";
    latency.Print(os);
  }
  return os.str();
}

}  // namespace flexstream
