// Count-based (ROWS) sliding-window aggregation: the aggregate over the
// last N elements, emitted once per input element. The count-based
// counterpart of WindowedAggregate's time-based window; CQL-style systems
// (the paper's STREAM comparison point) offer both window flavors.

#ifndef FLEXSTREAM_OPERATORS_COUNT_WINDOW_AGGREGATE_H_
#define FLEXSTREAM_OPERATORS_COUNT_WINDOW_AGGREGATE_H_

#include <deque>
#include <set>
#include <string>
#include <tuple>

#include "operators/aggregate.h"
#include "operators/operator.h"
#include "recovery/state_snapshot.h"

namespace flexstream {

/// State: the window's values in arrival order, their sum, and the same
/// values ordered for min/max.
class CountWindowAggregate
    : public Operator,
      public StatefulOperatorOf<
          std::tuple<std::deque<double>, double, std::multiset<double>>> {
 public:
  struct Options {
    AggregateKind kind = AggregateKind::kCount;
    size_t value_attr = 0;
    /// Window size in elements (the last N).
    size_t window_rows = 100;
  };

  CountWindowAggregate(std::string name, Options options);

  void Reset() override;

  size_t window_size() const { return window_.size(); }

 protected:
  void Process(const Tuple& tuple, int port) override;

 private:
  State CaptureState() const override { return {window_, sum_, ordered_}; }
  void InstallState(const State& state) override {
    std::tie(window_, sum_, ordered_) = state;
  }
  int64_t ElementCount(const State& state) const override {
    return static_cast<int64_t>(std::get<0>(state).size());
  }
  /// Also requires the ordered values to be exactly the window's.
  Status Decode(BinaryReader* r, State* state) const override;

  double Current() const;

  Options options_;
  std::deque<double> window_;
  double sum_ = 0.0;
  std::multiset<double> ordered_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_COUNT_WINDOW_AGGREGATE_H_
