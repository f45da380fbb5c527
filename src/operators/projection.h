// Projection operator: keeps a subset of attributes (by index), preserving
// order. Like Selection, its constructor can set a per-element simulated
// cost to model the paper's synthetic workloads (the 2.7 us projection of
// Section 6.6).

#ifndef FLEXSTREAM_OPERATORS_PROJECTION_H_
#define FLEXSTREAM_OPERATORS_PROJECTION_H_

#include <string>
#include <vector>

#include "operators/operator.h"
#include "tuple/columnar_batch.h"

namespace flexstream {

class Projection : public Operator {
 public:
  /// `attrs` lists the input attribute indices to keep, in output order.
  /// An empty list means identity (keep all attributes) — useful when the
  /// projection exists purely as a cost stage.
  Projection(std::string name, std::vector<size_t> attrs,
             double simulated_cost_micros = 0.0);

  const std::vector<size_t>& attrs() const { return attrs_; }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    return std::make_unique<Projection>(std::move(name), attrs_,
                                        simulated_cost_micros());
  }

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Batch-native path: rebuilds each tuple in place, moving the kept
  /// Values out of the owned input (copying only when `attrs` repeats an
  /// index, since a repeated index would read a moved-from Value).
  void ProcessBatch(TupleBatch&& batch, int port) override;
  /// Takes batches whose schema has every kept attribute.
  bool AcceptsColumnar(const Schema& schema, int port) const override;
  /// Columnar kernel: ProjectColumns rebinds the column vector (moving
  /// kept columns, sharing the arena) — no per-row work at all. Seq
  /// stamps are dropped to match the row path, which builds fresh Tuples.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  std::vector<size_t> attrs_;
  bool attrs_unique_ = true;
  // Projected-schema cache keyed on the input batch's SchemaPtr identity:
  // steady-state streams reuse one Schema object, so the projected schema
  // is computed once, not per batch. Serialized under the operator mutex.
  SchemaPtr cached_in_;
  SchemaPtr cached_out_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_PROJECTION_H_
