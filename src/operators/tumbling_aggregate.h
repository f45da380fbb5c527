// Tumbling-window aggregation.
//
// Application time is divided into fixed, non-overlapping windows of
// `window_micros`; one aggregate tuple per (window, group) is emitted
// when the window *closes* — i.e. when the first element of a later
// window arrives (streams are timestamp-monotone per input), or at
// end-of-stream for the final window. Complements WindowedAggregate
// (sliding window, one output per input).

#ifndef FLEXSTREAM_OPERATORS_TUMBLING_AGGREGATE_H_
#define FLEXSTREAM_OPERATORS_TUMBLING_AGGREGATE_H_

#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "operators/aggregate.h"
#include "operators/operator.h"
#include "recovery/state_snapshot.h"
#include "tuple/columnar_batch.h"

namespace flexstream {

/// One group's partial aggregate in a TumblingAggregate's open window.
struct TumblingGroup {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  friend void Put(BinaryWriter* w, const TumblingGroup& g) {
    Put(w, g.count, g.sum, g.min, g.max);
  }
  friend Status Get(BinaryReader* r, TumblingGroup* g) {
    return Get(r, &g->count, &g->sum, &g->min, &g->max);
  }
};

/// State: whether a window is open, its index, and its groups.
class TumblingAggregate
    : public Operator,
      public StatefulOperatorOf<
          std::tuple<bool, AppTime, std::map<Value, TumblingGroup>>> {
 public:
  struct Options {
    AggregateKind kind = AggregateKind::kCount;
    size_t value_attr = 0;
    std::optional<size_t> group_attr;
    AppTime window_micros = kMicrosPerSecond;
    /// Attach the window-start (true) or window-end (false) timestamp to
    /// emitted aggregates.
    bool stamp_window_start = false;
  };

  TumblingAggregate(std::string name, Options options);

  void Reset() override;

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    return std::make_unique<TumblingAggregate>(std::move(name), options_);
  }

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Takes batches carrying the group column and (unless counting) a
  /// numeric value column.
  bool AcceptsColumnar(const Schema& schema, int port) const override;
  /// Columnar kernel: the grouped update loop reads the timestamp, value
  /// and group columns directly (no Tuple per row); window flushes emit
  /// aggregate rows exactly as the row path does.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;
  void OnAllInputsClosed(AppTime timestamp) override;

 private:
  State CaptureState() const override {
    return {has_window_, current_window_, groups_};
  }
  void InstallState(const State& state) override {
    std::tie(has_window_, current_window_, groups_) = state;
  }
  int64_t ElementCount(const State& state) const override {
    return static_cast<int64_t>(std::get<2>(state).size());
  }

  AppTime WindowIndexOf(AppTime ts) const {
    return ts / options_.window_micros;
  }
  double Finish(const TumblingGroup& g) const;
  void FlushCurrentWindow();

  Options options_;
  bool has_window_ = false;
  AppTime current_window_ = 0;
  // Ordered map => deterministic emission order of groups per window.
  std::map<Value, TumblingGroup> groups_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_TUMBLING_AGGREGATE_H_
