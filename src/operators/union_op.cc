#include "operators/union_op.h"

#include "tuple/columnar_batch.h"

namespace flexstream {

UnionOp::UnionOp(std::string name)
    : Operator(Kind::kOperator, std::move(name), kVariadicArity) {}

void UnionOp::Process(const Tuple& tuple, int port) {
  (void)port;
  Emit(tuple);
}

void UnionOp::ProcessBatch(TupleBatch&& batch, int port) {
  (void)port;
  EmitBatch(std::move(batch));
}

void UnionOp::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  EmitColumnar(std::move(batch));
}

}  // namespace flexstream
