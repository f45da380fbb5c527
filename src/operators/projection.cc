#include "operators/projection.h"

#include <algorithm>

namespace flexstream {

Projection::Projection(std::string name, std::vector<size_t> attrs,
                       double simulated_cost_micros)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      attrs_(std::move(attrs)) {
  SetSimulatedCostMicros(simulated_cost_micros);
  std::vector<size_t> sorted = attrs_;
  std::sort(sorted.begin(), sorted.end());
  attrs_unique_ =
      std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

void Projection::Process(const Tuple& tuple, int port) {
  (void)port;
  if (attrs_.empty()) {
    Emit(tuple);
    return;
  }
  std::vector<Value> values;
  values.reserve(attrs_.size());
  for (size_t a : attrs_) values.push_back(tuple.at(a));
  EmitMove(Tuple(std::move(values), tuple.timestamp()));
}

void Projection::ProcessBatch(TupleBatch&& batch, int port) {
  (void)port;
  if (!attrs_.empty()) {
    for (Tuple& tuple : batch) {
      std::vector<Value> values;
      values.reserve(attrs_.size());
      for (size_t a : attrs_) {
        if (attrs_unique_) {
          values.push_back(std::move(tuple.at(a)));
        } else {
          values.push_back(tuple.at(a));
        }
      }
      tuple = Tuple(std::move(values), tuple.timestamp());
    }
  }
  EmitBatch(std::move(batch));
}

bool Projection::AcceptsColumnar(const Schema& schema, int) const {
  // An out-of-range attr (a drifted schema) takes the row path, whose
  // accessor checks report it.
  return std::all_of(attrs_.begin(), attrs_.end(),
                     [&](size_t a) { return a < schema.arity(); });
}

void Projection::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  if (attrs_.empty()) {
    EmitColumnar(std::move(batch));
    return;
  }
  const SchemaPtr& in = batch->schema_ptr();
  if (cached_in_ != in) {
    cached_in_ = in;
    std::vector<Value::Type> types;
    types.reserve(attrs_.size());
    for (size_t a : attrs_) types.push_back(in->type(a));
    cached_out_ = MakeSchema(std::move(types));
  }
  batch->ProjectColumns(attrs_, cached_out_);
  batch->ClearSeqs();
  EmitColumnar(std::move(batch));
}

}  // namespace flexstream
