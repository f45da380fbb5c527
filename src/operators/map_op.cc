#include "operators/map_op.h"

#include "util/logging.h"

namespace flexstream {

MapOp::MapOp(std::string name, MapFn fn, double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      fn_(std::move(fn)) {
  CHECK(fn_ != nullptr);
  SetSimulatedCostMicros(simulated_cost_micros);
}

MapOp::MapOp(std::string name, Int64ColumnMap map, double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      typed_map_(std::move(map)) {
  CHECK(typed_map_.fn != nullptr);
  SetSimulatedCostMicros(simulated_cost_micros);
  // Row deliveries rewrite the one attribute through the row accessor.
  fn_ = [attr = typed_map_.attr, f = typed_map_.fn](const Tuple& t) {
    Tuple out = t;
    out.at(attr) = Value(f(out.at(attr).AsInt64()));
    return out;
  };
}

void MapOp::Process(const Tuple& tuple, int port) {
  (void)port;
  EmitMove(fn_(tuple));
}

void MapOp::ProcessBatch(TupleBatch&& batch, int port) {
  (void)port;
  for (Tuple& tuple : batch) tuple = fn_(tuple);
  EmitBatch(std::move(batch));
}

bool MapOp::AcceptsColumnar(const Schema& schema, int) const {
  return typed_map_.fn != nullptr && typed_map_.attr < schema.arity() &&
         schema.type(typed_map_.attr) == Value::Type::kInt64;
}

void MapOp::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  const size_t n = batch->size();
  int64_t* vals = batch->MutableInts(typed_map_.attr);
  for (size_t i = 0; i < n; ++i) vals[i] = typed_map_.fn(vals[i]);
  EmitColumnar(std::move(batch));
}

}  // namespace flexstream
