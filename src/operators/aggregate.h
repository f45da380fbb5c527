// Windowed aggregation over a sliding time window, with optional group-by.
//
// On every input element the operator expires the window, folds the new
// element in, and emits the updated aggregate for the element's group —
// the standard continuous-aggregate semantics. The paper uses an expensive
// aggregation as the canonical stall-inducing operator (Figure 5), so the
// operator also supports a simulated per-element cost.

#ifndef FLEXSTREAM_OPERATORS_AGGREGATE_H_
#define FLEXSTREAM_OPERATORS_AGGREGATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "operators/operator.h"
#include "operators/window.h"
#include "recovery/state_snapshot.h"
#include "util/status.h"

namespace flexstream {

enum class AggregateKind { kCount, kSum, kAvg, kMin, kMax };

const char* AggregateKindToString(AggregateKind kind);

/// One group's running aggregate in a WindowedAggregate.
struct AggregateGroup {
  int64_t count = 0;
  double sum = 0.0;
  // Multiset of values so min/max survive expiration.
  std::multiset<double> values;

  // Field-exact (sum as IEEE-754 bits, the multiset verbatim) — never
  // re-folded from the window, so a restored aggregate continues the
  // identical floating-point trajectory.
  friend void Put(BinaryWriter* w, const AggregateGroup& g) {
    Put(w, g.count, g.sum, g.values);
  }
  friend Status Get(BinaryReader* r, AggregateGroup* g) {
    return Get(r, &g->count, &g->sum, &g->values);
  }
};

class WindowedAggregate
    : public Operator,
      public StatefulOperatorOf<
          std::pair<SlidingWindow,
                    std::unordered_map<Value, AggregateGroup, ValueHash>>> {
 public:
  struct Options {
    AggregateKind kind = AggregateKind::kCount;
    /// Attribute aggregated (numeric); ignored for kCount.
    size_t value_attr = 0;
    /// Group-by attribute; nullopt = single global group.
    std::optional<size_t> group_attr;
    AppTime window_micros = kMicrosPerMinute;
  };

  WindowedAggregate(std::string name, Options options);

  /// Output schema: (group_key, aggregate) when grouped, else (aggregate);
  /// timestamp = input timestamp.
  void Reset() override;

  size_t window_size() const { return window_.size(); }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override;

  /// Redistributes the committed snapshots of N replicas of this aggregate
  /// into `new_n` key-partitions on the group attribute, assigning every
  /// windowed element to Router::HashValue(group key) % new_n — exactly
  /// how a Router routes live elements. Group states are re-folded from
  /// the merged windows. Fails on a non-grouped aggregate (its single
  /// global group cannot be key-partitioned). `this` supplies the
  /// aggregate options; its own state is untouched.
  Result<std::vector<OperatorSnapshot>> RepartitionSnapshots(
      const std::vector<OperatorSnapshot>& snapshots, size_t new_n) const;

 protected:
  void Process(const Tuple& tuple, int port) override;

 private:
  State CaptureState() const override { return {window_, groups_}; }
  void InstallState(const State& state) override {
    std::tie(window_, groups_) = state;
  }
  int64_t ElementCount(const State& state) const override {
    return static_cast<int64_t>(state.first.size());
  }

  Value GroupKeyOf(const Tuple& tuple) const;
  double ValueOf(const Tuple& tuple) const;
  double Current(const AggregateGroup& g) const;
  void Fold(AggregateGroup* g, double v) const;
  void Unfold(AggregateGroup* g, double v) const;

  Options options_;
  SlidingWindow window_;
  std::unordered_map<Value, AggregateGroup, ValueHash> groups_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_AGGREGATE_H_
