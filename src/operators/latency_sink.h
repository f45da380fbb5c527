// A sink that measures end-to-end element latency.
//
// Latency of a result = (wall time it reaches the sink) - (wall time its
// originating element entered the graph). Sources stamp the entry time as
// an extra integer attribute (microseconds since a shared epoch; see
// workload::RateSource::Options::stamp_emit_offset); the sink reads that
// attribute and accumulates a log-bucketed histogram. Scheduling policy
// does not change *what* is computed, but it changes latency drastically —
// this sink is how every benchmark observes tail latency (p50/p95/p99/
// p999; see stats/report.h BuildLatencyTable for the engine-wide view).
//
// Optionally a second integer attribute identifies the workload *phase*
// the element belongs to (multi-phase soak scenarios stamp it in the
// generator); the sink then also keeps one histogram per phase, so bursty
// runs can report "p99 during the flash-sale burst" separately from the
// baseline phases.

#ifndef FLEXSTREAM_OPERATORS_LATENCY_SINK_H_
#define FLEXSTREAM_OPERATORS_LATENCY_SINK_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "operators/sink.h"
#include "recovery/state_snapshot.h"
#include "util/histogram.h"

namespace flexstream {

/// Stateful for recovery: restoring the epoch's histograms and replaying
/// only post-epoch input counts every element exactly once. Replayed
/// elements are re-measured against the wall clock at replay time, so a
/// recovered run's tail honestly includes the outage.
/// State: the overall histogram and the per-phase ones.
class LatencySink
    : public Sink,
      public StatefulOperatorOf<
          std::pair<Histogram, std::map<int64_t, Histogram>>> {
 public:
  /// `offset_attr` is the attribute holding the emit offset in
  /// microseconds relative to `epoch`. `phase_attr`, when given, holds the
  /// integer phase id the element was generated in.
  LatencySink(std::string name, size_t offset_attr, TimePoint epoch,
              std::optional<size_t> phase_attr = std::nullopt);

  /// Snapshot of the latency histogram (microseconds), clearing it.
  Histogram TakeHistogram();

  /// Non-destructive snapshot — what the stats tables and the watchdog
  /// read from a still-running graph.
  Histogram SnapshotHistogram() const;

  /// Per-phase histograms (phase id -> histogram), clearing them. Empty
  /// unless a phase attribute was configured.
  std::map<int64_t, Histogram> TakePhaseHistograms();

  int64_t count() const;

  void Reset() override;

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Batch-safe path: one clock read and one lock acquisition per batch.
  /// All elements of the batch share the arrival timestamp — they became
  /// visible to the sink at the same drain instant, so per-element clock
  /// reads would only add noise (and cost) to the measurement.
  void ProcessBatch(TupleBatch&& batch, int port) override;
  /// Takes batches carrying kInt64 at the offset (and phase) attributes.
  bool AcceptsColumnar(const Schema& schema, int port) const override;
  /// Columnar kernel: reads the offset (and phase) columns directly —
  /// one clock read, one lock, no row materialization.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  State CaptureState() const override;
  void InstallState(const State& state) override;
  int64_t ElementCount(const State& state) const override {
    return state.first.count();
  }

  size_t offset_attr_;
  TimePoint epoch_;
  std::optional<size_t> phase_attr_;
  mutable std::mutex mutex_;
  Histogram histogram_;
  std::map<int64_t, Histogram> phase_histograms_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_LATENCY_SINK_H_
