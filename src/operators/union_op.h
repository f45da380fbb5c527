// Union operator: merges any number of input streams into one output
// stream, preserving per-input order (bag union; no duplicate
// elimination). Variadic arity — any number of producers may connect.

#ifndef FLEXSTREAM_OPERATORS_UNION_OP_H_
#define FLEXSTREAM_OPERATORS_UNION_OP_H_

#include <string>

#include "operators/operator.h"

namespace flexstream {

class UnionOp : public Operator {
 public:
  explicit UnionOp(std::string name);

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    return std::make_unique<UnionOp>(std::move(name));
  }

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Batch-native path: forwards the batch whole (bag union is a no-op on
  /// the payload; per-input order is preserved because a batch is a
  /// contiguous run from one producer).
  void ProcessBatch(TupleBatch&& batch, int port) override;
  /// Every schema passes: a union never reads the columns.
  bool AcceptsColumnar(const Schema&, int) const override { return true; }
  /// Columnar passthrough: a pointer move, zero per-row work.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_UNION_OP_H_
