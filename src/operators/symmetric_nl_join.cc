#include "operators/symmetric_nl_join.h"

#include <utility>

#include "util/logging.h"

namespace flexstream {

SymmetricNlJoin::SymmetricNlJoin(std::string name, AppTime window_micros,
                                 Predicate predicate)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/2),
      predicate_(std::move(predicate)),
      windows_{SlidingWindow(window_micros), SlidingWindow(window_micros)} {
  CHECK(predicate_ != nullptr);
}

SymmetricNlJoin::Predicate SymmetricNlJoin::EqualAttr(size_t left_attr,
                                                      size_t right_attr) {
  return [left_attr, right_attr](const Tuple& l, const Tuple& r) {
    return l.at(left_attr) == r.at(right_attr);
  };
}

void SymmetricNlJoin::Reset() {
  Operator::Reset();
  windows_[0].Clear();
  windows_[1].Clear();
}

void SymmetricNlJoin::Process(const Tuple& tuple, int port) {
  DCHECK(port == kLeftPort || port == kRightPort);
  SlidingWindow& own = windows_[port];
  SlidingWindow& other = windows_[1 - port];
  const AppTime watermark = tuple.timestamp() - own.duration_micros();
  own.ExpireBefore(watermark);
  other.ExpireBefore(watermark);
  for (const Tuple& candidate : other.contents()) {
    // Window-band check (see symmetric_hash_join.cc): schedule-independent
    // semantics even when one input queue runs ahead of the other.
    if (candidate.timestamp() < watermark ||
        candidate.timestamp() > tuple.timestamp() + own.duration_micros()) {
      continue;
    }
    const Tuple& left = (port == kLeftPort) ? tuple : candidate;
    const Tuple& right = (port == kLeftPort) ? candidate : tuple;
    if (predicate_(left, right)) {
      EmitMove(Tuple::Concat(left, right));
    }
  }
  own.Add(tuple);
}

Status SymmetricNlJoin::Decode(BinaryReader* r, State* state) const {
  Status s = Get(r, state);
  if (!s.ok()) return s;
  for (int side = 0; side < 2; ++side) {
    if ((*state)[side].duration_micros() != windows_[side].duration_micros()) {
      return Status::InvalidArgument(
          "nl-join snapshot window duration does not match operator");
    }
  }
  return Status::Ok();
}
}  // namespace flexstream
