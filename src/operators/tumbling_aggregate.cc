#include "operators/tumbling_aggregate.h"

#include <algorithm>
#include <utility>

#include "tuple/batch_pool.h"
#include "util/logging.h"

namespace flexstream {

TumblingAggregate::TumblingAggregate(std::string name, Options options)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      options_(options) {
  CHECK_GT(options.window_micros, 0);
}

void TumblingAggregate::Reset() {
  Operator::Reset();
  has_window_ = false;
  current_window_ = 0;
  groups_.clear();
}

double TumblingAggregate::Finish(const TumblingGroup& g) const {
  switch (options_.kind) {
    case AggregateKind::kCount:
      return static_cast<double>(g.count);
    case AggregateKind::kSum:
      return g.sum;
    case AggregateKind::kAvg:
      return g.count == 0 ? 0.0 : g.sum / static_cast<double>(g.count);
    case AggregateKind::kMin:
      return g.min;
    case AggregateKind::kMax:
      return g.max;
  }
  return 0.0;
}

void TumblingAggregate::FlushCurrentWindow() {
  if (!has_window_ || groups_.empty()) {
    groups_.clear();
    return;
  }
  const AppTime stamp =
      options_.stamp_window_start
          ? current_window_ * options_.window_micros
          : (current_window_ + 1) * options_.window_micros;
  for (const auto& [key, state] : groups_) {
    if (options_.group_attr) {
      EmitMove(Tuple({key, Value(Finish(state))}, stamp));
    } else {
      EmitMove(Tuple({Value(Finish(state))}, stamp));
    }
  }
  groups_.clear();
}

void TumblingAggregate::Process(const Tuple& tuple, int port) {
  (void)port;
  const AppTime window = WindowIndexOf(tuple.timestamp());
  if (has_window_ && window != current_window_) {
    // Tumbling windows require timestamp-monotone input per edge.
    DCHECK_GT(window, current_window_);
    FlushCurrentWindow();
  }
  has_window_ = true;
  current_window_ = window;
  const Value key = options_.group_attr ? tuple.at(*options_.group_attr)
                                        : Value(int64_t{0});
  const double v = options_.kind == AggregateKind::kCount
                       ? 0.0
                       : tuple.at(options_.value_attr).ToDouble();
  TumblingGroup& g = groups_[key];
  if (g.count == 0) {
    g.min = v;
    g.max = v;
  } else {
    g.min = std::min(g.min, v);
    g.max = std::max(g.max, v);
  }
  ++g.count;
  g.sum += v;
}

bool TumblingAggregate::AcceptsColumnar(const Schema& schema, int) const {
  const size_t v = options_.value_attr;
  const bool value_ok =
      options_.kind == AggregateKind::kCount ||
      (v < schema.arity() && (schema.type(v) == Value::Type::kInt64 ||
                              schema.type(v) == Value::Type::kDouble));
  return value_ok &&
         (!options_.group_attr || *options_.group_attr < schema.arity());
}

void TumblingAggregate::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  const Schema& schema = batch->schema();
  const bool needs_value = options_.kind != AggregateKind::kCount;
  const size_t n = batch->size();
  const AppTime* ts = batch->Timestamps();
  const int64_t* vi = nullptr;
  const double* vd = nullptr;
  if (needs_value) {
    if (schema.type(options_.value_attr) == Value::Type::kInt64) {
      vi = batch->Ints(options_.value_attr);
    } else {
      vd = batch->Doubles(options_.value_attr);
    }
  }
  const size_t group_attr = options_.group_attr ? *options_.group_attr : 0;
  const Value::Type group_type =
      options_.group_attr ? schema.type(group_attr) : Value::Type::kInt64;
  // The single-group (and run-of-equal-int-keys) state is cached across
  // rows; a window flush invalidates it.
  TumblingGroup* cached = nullptr;
  for (size_t i = 0; i < n; ++i) {
    const AppTime window = WindowIndexOf(ts[i]);
    if (has_window_ && window != current_window_) {
      DCHECK_GT(window, current_window_);
      FlushCurrentWindow();
      cached = nullptr;
    }
    has_window_ = true;
    current_window_ = window;
    TumblingGroup* g;
    if (!options_.group_attr) {
      if (cached == nullptr) cached = &groups_[Value(int64_t{0})];
      g = cached;
    } else {
      switch (group_type) {
        case Value::Type::kInt64:
          g = &groups_[Value(batch->Ints(group_attr)[i])];
          break;
        case Value::Type::kDouble:
          g = &groups_[Value(batch->Doubles(group_attr)[i])];
          break;
        case Value::Type::kString:
        default:
          g = &groups_[Value(std::string(batch->StringAt(group_attr, i)))];
          break;
      }
    }
    const double v = !needs_value
                         ? 0.0
                         : (vi != nullptr ? static_cast<double>(vi[i]) : vd[i]);
    if (g->count == 0) {
      g->min = v;
      g->max = v;
    } else {
      g->min = std::min(g->min, v);
      g->max = std::max(g->max, v);
    }
    ++g->count;
    g->sum += v;
  }
  columnar::ReleaseBatch(std::move(batch));
}

void TumblingAggregate::OnAllInputsClosed(AppTime timestamp) {
  FlushCurrentWindow();
  EmitEos(timestamp);
}

}  // namespace flexstream
