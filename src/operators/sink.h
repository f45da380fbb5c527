// Sinks: nodes that only consume data (Section 2.1).
//
// Sinks are the observation points of every experiment: they count or
// collect results, record arrival times for the "early results" series of
// Figure 10, and let callers block until the stream has fully terminated.

#ifndef FLEXSTREAM_OPERATORS_SINK_H_
#define FLEXSTREAM_OPERATORS_SINK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "recovery/state_snapshot.h"
#include "tuple/columnar_batch.h"

namespace flexstream {

/// Base sink: tracks completion and lets callers wait for it. Subclasses
/// implement Consume(). Consume runs in whichever thread executes the
/// sink's partition; the completion signal is thread-safe.
class Sink : public Operator {
 public:
  explicit Sink(std::string name);

  /// Blocks until the sink has seen EOS on all inputs.
  void WaitUntilClosed();

  /// Like WaitUntilClosed with a timeout; returns false on timeout.
  bool WaitUntilClosedFor(Duration timeout);

  void Reset() override;

 protected:
  void Process(const Tuple& tuple, int port) override;
  void ProcessBatch(TupleBatch&& batch, int port) override;
  void OnAllInputsClosed(AppTime timestamp) override;

  virtual void Consume(const Tuple& tuple, int port) = 0;

  /// Batch analogue of Consume. The default unbundles into per-tuple
  /// Consume calls; the counting/collecting sinks override it to absorb
  /// the whole batch under one lock/atomic update.
  virtual void ConsumeBatch(TupleBatch&& batch, int port);

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
};

/// Counts results; optionally timestamps every arrival relative to a start
/// point so benches can print cumulative-results-over-time series (Fig 10).
/// Stateful for recovery: restoring the checkpointed count (and replaying
/// only post-epoch input) makes the final count exactly-once.
class CountingSink : public Sink, public StatefulOperator {
 public:
  explicit CountingSink(std::string name);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }

  OperatorSnapshot SnapshotState() const override;
  void RestoreState(const OperatorSnapshot& snapshot) override;

  bool SupportsDurableState() const override { return true; }
  Status EncodeState(const OperatorSnapshot& snapshot,
                     std::string* out) const override;
  Result<OperatorSnapshot> DecodeState(std::string_view bytes) const override;

  /// Enables per-arrival time recording relative to `start`.
  void StartTimeline(TimePoint start);
  /// (seconds since start, cumulative count) samples, one per arrival.
  std::vector<std::pair<double, int64_t>> TakeTimeline();

  void Reset() override;

 protected:
  void Consume(const Tuple& tuple, int port) override;
  void ConsumeBatch(TupleBatch&& batch, int port) override;
  /// Columnar kernel: one atomic add for the whole batch — no row
  /// materialization at all (the timeline mode keeps the per-tuple path).
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  std::atomic<int64_t> count_{0};
  std::mutex timeline_mutex_;
  bool timeline_enabled_ = false;
  TimePoint timeline_start_{};
  std::vector<std::pair<double, int64_t>> timeline_;
};

/// Stores every received tuple; the store is mutex-protected so tests can
/// inspect results from the main thread after WaitUntilClosed().
/// Stateful for recovery: truncating the store back to the committed
/// epoch's snapshot deduplicates replayed results exactly (the epoch +
/// arrival-sequence dedup of DESIGN.md §10), so a recovered run's results
/// are an exact multiset match against an undisturbed one.
class CollectingSink : public Sink, public StatefulOperator {
 public:
  /// Tuples per sealed chunk of the result store.
  static constexpr size_t kChunkSize = 128;

  /// The result store, which is also the snapshot payload: sealed chunks
  /// of exactly kChunkSize tuples, immutable and shared by pointer, then
  /// one open tail. Copying it shares the sealed chunks and copies only
  /// the tail, so a per-epoch snapshot costs O(tail + chunk count) rather
  /// than O(results), and restoring one truncates the store to it. The
  /// chunk list is flat, so releasing any copy never recurses.
  struct Chunks {
    std::vector<std::shared_ptr<const std::vector<Tuple>>> sealed;
    std::vector<Tuple> tail;

    size_t size() const { return sealed.size() * kChunkSize + tail.size(); }
    void Append(Tuple tuple);
    /// All tuples in arrival order.
    std::vector<Tuple> Flatten() const;
  };

  explicit CollectingSink(std::string name);

  std::vector<Tuple> TakeResults();
  std::vector<Tuple> Results() const;
  size_t size() const;

  OperatorSnapshot SnapshotState() const override;
  void RestoreState(const OperatorSnapshot& snapshot) override;

  bool SupportsDurableState() const override { return true; }
  Status EncodeState(const OperatorSnapshot& snapshot,
                     std::string* out) const override;
  Result<OperatorSnapshot> DecodeState(std::string_view bytes) const override;

  void Reset() override;

 protected:
  void Consume(const Tuple& tuple, int port) override;
  void ConsumeBatch(TupleBatch&& batch, int port) override;

 private:
  mutable std::mutex results_mutex_;
  Chunks results_;
};

/// Invokes a callback per tuple (for examples and ad-hoc probes).
class CallbackSink : public Sink {
 public:
  CallbackSink(std::string name,
               std::function<void(const Tuple&, int)> callback);

 protected:
  void Consume(const Tuple& tuple, int port) override;

 private:
  std::function<void(const Tuple&, int)> callback_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_SINK_H_
