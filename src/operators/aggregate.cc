#include "operators/aggregate.h"

#include <algorithm>
#include <utility>

#include "operators/router.h"
#include "util/logging.h"

namespace flexstream {

const char* AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "count";
    case AggregateKind::kSum:
      return "sum";
    case AggregateKind::kAvg:
      return "avg";
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kMax:
      return "max";
  }
  return "unknown";
}

WindowedAggregate::WindowedAggregate(std::string name, Options options)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      options_(options),
      window_(options.window_micros) {}

void WindowedAggregate::Reset() {
  Operator::Reset();
  window_.Clear();
  groups_.clear();
}

Value WindowedAggregate::GroupKeyOf(const Tuple& tuple) const {
  return options_.group_attr ? tuple.at(*options_.group_attr)
                             : Value(int64_t{0});
}

double WindowedAggregate::ValueOf(const Tuple& tuple) const {
  if (options_.kind == AggregateKind::kCount) return 0.0;
  return tuple.at(options_.value_attr).ToDouble();
}

void WindowedAggregate::Fold(AggregateGroup* g, double v) const {
  ++g->count;
  g->sum += v;
  if (options_.kind == AggregateKind::kMin ||
      options_.kind == AggregateKind::kMax) {
    g->values.insert(v);
  }
}

void WindowedAggregate::Unfold(AggregateGroup* g, double v) const {
  --g->count;
  g->sum -= v;
  if (options_.kind == AggregateKind::kMin ||
      options_.kind == AggregateKind::kMax) {
    auto it = g->values.find(v);
    DCHECK(it != g->values.end());
    g->values.erase(it);
  }
}

double WindowedAggregate::Current(const AggregateGroup& g) const {
  switch (options_.kind) {
    case AggregateKind::kCount:
      return static_cast<double>(g.count);
    case AggregateKind::kSum:
      return g.sum;
    case AggregateKind::kAvg:
      return g.count == 0 ? 0.0 : g.sum / static_cast<double>(g.count);
    case AggregateKind::kMin:
      return g.values.empty() ? 0.0 : *g.values.begin();
    case AggregateKind::kMax:
      return g.values.empty() ? 0.0 : *g.values.rbegin();
  }
  return 0.0;
}

void WindowedAggregate::Process(const Tuple& tuple, int port) {
  (void)port;
  const AppTime watermark = window_.WatermarkFor(tuple.timestamp());
  window_.ExpireBefore(watermark, [&](const Tuple& expired) {
    const Value key = GroupKeyOf(expired);
    auto it = groups_.find(key);
    DCHECK(it != groups_.end());
    Unfold(&it->second, ValueOf(expired));
    if (it->second.count == 0) groups_.erase(it);
  });
  window_.Add(tuple);
  AggregateGroup& group = groups_[GroupKeyOf(tuple)];
  Fold(&group, ValueOf(tuple));
  if (options_.group_attr) {
    EmitMove(Tuple({tuple.at(*options_.group_attr), Value(Current(group))},
               tuple.timestamp()));
  } else {
    EmitMove(Tuple({Value(Current(group))}, tuple.timestamp()));
  }
}


std::unique_ptr<Operator> WindowedAggregate::CloneFresh(
    std::string name) const {
  return std::make_unique<WindowedAggregate>(std::move(name), options_);
}

Result<std::vector<OperatorSnapshot>> WindowedAggregate::RepartitionSnapshots(
    const std::vector<OperatorSnapshot>& snapshots, size_t new_n) const {
  if (new_n == 0) {
    return Status::InvalidArgument("cannot repartition into 0 shards");
  }
  if (!options_.group_attr) {
    return Status::InvalidArgument(
        "cannot key-repartition a non-grouped aggregate: " + name());
  }
  if (snapshots.empty()) {
    return Status::InvalidArgument("no replica snapshots to repartition");
  }
  // Merge the replicas' windows into one timestamp-ordered stream (each
  // window deque is timestamp-monotone, so a stable sort is a valid
  // merge), then rebuild each shard by re-folding its share.
  std::vector<Tuple> arrivals;
  for (const OperatorSnapshot& snap : snapshots) {
    if (snap.epoch != snapshots.front().epoch) {
      return Status::FailedPrecondition(
          "replica snapshots span different epochs");
    }
    const State* state = StateOf(snap);
    if (state == nullptr) {
      return Status::InvalidArgument("snapshot is not an aggregate snapshot");
    }
    for (const Tuple& tuple : state->first.contents()) {
      arrivals.push_back(tuple);
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.timestamp() < b.timestamp();
                   });
  std::vector<State> shards(new_n,
                            State{SlidingWindow(options_.window_micros), {}});
  for (const Tuple& tuple : arrivals) {
    const Value key = tuple.at(*options_.group_attr);
    State& shard = shards[Router::HashValue(key) % new_n];
    shard.first.Add(tuple);
    Fold(&shard.second[key], ValueOf(tuple));
  }
  std::vector<OperatorSnapshot> out(new_n);
  for (size_t i = 0; i < new_n; ++i) {
    out[i].epoch = snapshots.front().epoch;
    out[i].element_count = ElementCount(shards[i]);
    out[i].state = std::move(shards[i]);
  }
  return out;
}
}  // namespace flexstream
