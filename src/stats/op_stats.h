// Per-operator runtime statistics.
//
// Section 5.1.3 of the paper: "We assume that the required values c(v) and
// d(v) are meta data provided by the DSMS during runtime." OpStats is that
// metadata provider: it measures processing cost, inter-arrival gaps and
// selectivity online. The hot-path updates are performed by the single
// thread currently executing the operator; monitor threads read through
// relaxed atomics, so snapshots are cheap and never block processing.

#ifndef FLEXSTREAM_STATS_OP_STATS_H_
#define FLEXSTREAM_STATS_OP_STATS_H_

#include <atomic>
#include <cstdint>

#include "stats/ewma.h"
#include "util/clock.h"

namespace flexstream {

class OpStats {
 public:
  OpStats() = default;
  OpStats(const OpStats&) = delete;
  OpStats& operator=(const OpStats&) = delete;

  // Both recorders take an element count `n` so a batch (DESIGN.md §11)
  // costs one clock read and one EWMA update, amortizing the stats
  // bookkeeping too. The per-element estimates stay meaningful — the
  // batch's gap/cost is spread evenly across its elements, keeping d(v)
  // and c(v) per-element as Section 5.1 requires.

  /// Records the arrival of `n` data elements delivered together (updates
  /// d(v)). `now` is passed in so the caller can reuse one clock read
  /// across several updates.
  void RecordArrival(TimePoint now, int64_t n = 1);

  /// Records `n` processed elements costing `total_micros` of CPU in total
  /// (updates c(v)).
  void RecordProcessed(double total_micros, int64_t n = 1);

  /// Records `n` emitted output elements (updates selectivity).
  void RecordEmitted(int64_t n = 1);

  /// Mean per-element processing cost in microseconds — the paper's c(v).
  double CostMicros() const { return cost_micros_.load(std::memory_order_relaxed); }

  /// Mean inter-arrival time in microseconds — the paper's d(v).
  /// Returns +infinity before two arrivals have been seen (an operator that
  /// has never received input has rate 0).
  double InterarrivalMicros() const;

  /// Output elements per input element.
  double Selectivity() const;

  int64_t processed() const { return processed_.load(std::memory_order_relaxed); }
  int64_t emitted() const { return emitted_.load(std::memory_order_relaxed); }
  int64_t arrivals() const { return arrivals_.load(std::memory_order_relaxed); }

  /// Total busy time spent inside Process, in microseconds.
  double BusyMicros() const { return busy_micros_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  // EWMAs are owned by the processing thread; published values mirror them
  // through atomics for cross-thread reads.
  Ewma cost_ewma_{0.05};
  Ewma gap_ewma_{0.05};
  bool has_last_arrival_ = false;
  TimePoint last_arrival_{};

  std::atomic<double> cost_micros_{0.0};
  std::atomic<double> interarrival_micros_{0.0};
  std::atomic<double> busy_micros_{0.0};
  std::atomic<int64_t> processed_{0};
  std::atomic<int64_t> emitted_{0};
  std::atomic<int64_t> arrivals_{0};
};

}  // namespace flexstream

#endif  // FLEXSTREAM_STATS_OP_STATS_H_
