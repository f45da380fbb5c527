#include "operators/count_window_aggregate.h"

#include <utility>

#include "util/binary_io.h"
#include "util/logging.h"

namespace flexstream {

CountWindowAggregate::CountWindowAggregate(std::string name, Options options)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      options_(options) {
  CHECK_GT(options.window_rows, 0u);
}

void CountWindowAggregate::Reset() {
  Operator::Reset();
  window_.clear();
  ordered_.clear();
  sum_ = 0.0;
}

double CountWindowAggregate::Current() const {
  switch (options_.kind) {
    case AggregateKind::kCount:
      return static_cast<double>(window_.size());
    case AggregateKind::kSum:
      return sum_;
    case AggregateKind::kAvg:
      return window_.empty()
                 ? 0.0
                 : sum_ / static_cast<double>(window_.size());
    case AggregateKind::kMin:
      return ordered_.empty() ? 0.0 : *ordered_.begin();
    case AggregateKind::kMax:
      return ordered_.empty() ? 0.0 : *ordered_.rbegin();
  }
  return 0.0;
}

void CountWindowAggregate::Process(const Tuple& tuple, int port) {
  (void)port;
  const double v = options_.kind == AggregateKind::kCount
                       ? 0.0
                       : tuple.at(options_.value_attr).ToDouble();
  window_.push_back(v);
  sum_ += v;
  ordered_.insert(v);
  if (window_.size() > options_.window_rows) {
    const double evicted = window_.front();
    window_.pop_front();
    sum_ -= evicted;
    auto it = ordered_.find(evicted);
    DCHECK(it != ordered_.end());
    ordered_.erase(it);
  }
  EmitMove(Tuple({Value(Current())}, tuple.timestamp()));
}

Status CountWindowAggregate::Decode(BinaryReader* r, State* state) const {
  Status s = Get(r, state);
  if (!s.ok()) return s;
  const std::deque<double>& window = std::get<0>(*state);
  // Eviction erases each evicted value from `ordered`, which must hold it.
  if (std::get<2>(*state) !=
      std::multiset<double>(window.begin(), window.end())) {
    return Status::InvalidArgument(
        "count-window snapshot ordered values differ from its window");
  }
  return Status::Ok();
}
}  // namespace flexstream
