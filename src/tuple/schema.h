// The typed-schema layer for columnar batches.
//
// A Schema is the ordered list of attribute types a stream carries. A
// source declares it (or infers it from its first element) and it travels
// with every ColumnarBatch, so each operator's door (AcceptsColumnar)
// verifies at delivery time that the typed columns its kernel is about to
// touch really hold what it reads. A mismatch is never an error on the hot
// path: the batch simply materializes to the row-wise fallback (DESIGN.md
// §17).

#ifndef FLEXSTREAM_TUPLE_SCHEMA_H_
#define FLEXSTREAM_TUPLE_SCHEMA_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "tuple/tuple.h"
#include "tuple/value.h"

namespace flexstream {

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Value::Type> types) : types_(std::move(types)) {}

  /// The runtime types of a concrete tuple's attributes.
  static Schema InferFrom(const Tuple& tuple) {
    std::vector<Value::Type> types;
    types.reserve(tuple.arity());
    for (const Value& v : tuple.values()) types.push_back(v.type());
    return Schema(std::move(types));
  }

  size_t arity() const { return types_.size(); }
  Value::Type type(size_t i) const { return types_[i]; }
  const std::vector<Value::Type>& types() const { return types_; }

  /// True when `tuple` is a data tuple whose attribute types match exactly.
  bool Matches(const Tuple& tuple) const {
    if (!tuple.is_data() || tuple.arity() != types_.size()) return false;
    for (size_t i = 0; i < types_.size(); ++i) {
      if (tuple.at(i).type() != types_[i]) return false;
    }
    return true;
  }

  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.types_ == b.types_;
  }
  friend bool operator!=(const Schema& a, const Schema& b) {
    return !(a == b);
  }

 private:
  std::vector<Value::Type> types_;
};

/// Schemas are shared immutably between batches, sources and operators so
/// the common "same stream, same schema" check is one pointer compare.
using SchemaPtr = std::shared_ptr<const Schema>;

inline SchemaPtr MakeSchema(std::vector<Value::Type> types) {
  return std::make_shared<const Schema>(std::move(types));
}

}  // namespace flexstream

#endif  // FLEXSTREAM_TUPLE_SCHEMA_H_
