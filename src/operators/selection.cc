#include "operators/selection.h"

#include "tuple/batch_pool.h"
#include "util/logging.h"

namespace flexstream {

Selection::Selection(std::string name, Predicate predicate,
                     double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      predicate_(std::move(predicate)) {
  CHECK(predicate_ != nullptr);
  SetSimulatedCostMicros(simulated_cost_micros);
}

Selection::Selection(std::string name, Int64ColumnPredicate pred,
                     double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      typed_pred_(std::move(pred)) {
  CHECK(typed_pred_.fn != nullptr);
  SetSimulatedCostMicros(simulated_cost_micros);
  // Row deliveries evaluate the same function through the row accessor.
  predicate_ = [attr = typed_pred_.attr, fn = typed_pred_.fn](const Tuple& t) {
    return fn(t.IntAt(attr));
  };
}

Selection::Predicate Selection::IntAttrLessThan(int64_t threshold,
                                                size_t attr) {
  return [threshold, attr](const Tuple& t) {
    return t.IntAt(attr) < threshold;
  };
}

Int64ColumnPredicate Selection::ColumnIntLessThan(int64_t threshold,
                                                  size_t attr) {
  return Int64ColumnPredicate{
      attr, [threshold](int64_t v) { return v < threshold; }};
}

void Selection::Process(const Tuple& tuple, int port) {
  (void)port;
  if (predicate_(tuple)) Emit(tuple);
}

void Selection::ProcessBatch(TupleBatch&& batch, int port) {
  (void)port;
  batch.Compact(predicate_);
  EmitBatch(std::move(batch));
}

bool Selection::AcceptsColumnar(const Schema& schema, int) const {
  return typed_pred_.fn != nullptr && typed_pred_.attr < schema.arity() &&
         schema.type(typed_pred_.attr) == Value::Type::kInt64;
}

void Selection::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  const size_t n = batch->size();
  const int64_t* vals = batch->Ints(typed_pred_.attr);
  keep_.clear();
  keep_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (typed_pred_.fn(vals[i])) keep_.push_back(static_cast<uint32_t>(i));
  }
  if (keep_.empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  batch->CompactRows(keep_.data(), keep_.size());
  EmitColumnar(std::move(batch));
}

}  // namespace flexstream
