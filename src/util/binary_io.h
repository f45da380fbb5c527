// Canonical binary encoding for durable checkpoints.
//
// The snapshot store (src/recovery/snapshot_store.h) persists operator
// state with these primitives. The encoding is deliberately boring and
// deterministic: little-endian fixed-width integers, IEEE-754 doubles by
// bit pattern, length-prefixed strings. Determinism is a format guarantee,
// not an accident — hash-map contents are emitted in sorted key order so
// encode(decode(bytes)) == bytes, the property the byte-exact round-trip
// tests pin (tests/state_serde_test.cc).
//
// BinaryReader is bounds-checked and Status-returning: a torn or corrupted
// file must surface as a clean decode error, never as UB.
//
// Put/Get below are the generic codec every operator's typed state goes
// through (recovery/state_snapshot.h): one overload per scalar, Value and
// Tuple, then containers built from them. A type with a format of its own
// (a window, a histogram, a result store) declares its Put/Get next to the
// type, where argument-dependent lookup finds it.

#ifndef FLEXSTREAM_UTIL_BINARY_IO_H_
#define FLEXSTREAM_UTIL_BINARY_IO_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tuple/tuple.h"
#include "tuple/value.h"
#include "util/status.h"

namespace flexstream {

/// Appends fixed-width little-endian primitives to a backing string.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern — exact, including -0.0 and NaN payloads.
  void F64(double v);
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s);

  void Value(const flexstream::Value& v);
  /// kind + timestamp + seq + values. seq is routing metadata excluded
  /// from Tuple::operator==, but buffered join/window state carries it
  /// through sharded replicas, so durable state must preserve it.
  void Tuple(const flexstream::Tuple& t);

  size_t size() const { return out_->size(); }

 private:
  std::string* out_;
};

/// Bounds-checked reads over an immutable byte view. Every method returns
/// OutOfRange once the input is exhausted and InvalidArgument on malformed
/// content; after an error the reader is left positioned at the failure.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);
  Status Str(std::string* s);

  Status Value(flexstream::Value* v);
  Status Tuple(flexstream::Tuple* t);

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  Status Take(size_t n, const char** p);

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Generic codec. Scalars are fixed-width (bool as one byte); vectors,
// deques, multisets and maps carry a u64 element count; pairs, tuples and
// arrays are their fields in order with no prefix. Decoding rejects a count
// larger than the bytes remaining (every element costs at least one byte),
// a duplicate map key, and a bool other than 0 or 1.

inline void Put(BinaryWriter* w, bool v) { w->U8(v ? 1 : 0); }
inline void Put(BinaryWriter* w, int64_t v) { w->I64(v); }
inline void Put(BinaryWriter* w, double v) { w->F64(v); }
inline void Put(BinaryWriter* w, const Value& v) { w->Value(v); }
inline void Put(BinaryWriter* w, const Tuple& t) { w->Tuple(t); }

Status Get(BinaryReader* r, bool* v);
inline Status Get(BinaryReader* r, int64_t* v) { return r->I64(v); }
inline Status Get(BinaryReader* r, double* v) { return r->F64(v); }
inline Status Get(BinaryReader* r, Value* v) { return r->Value(v); }
inline Status Get(BinaryReader* r, Tuple* t) { return r->Tuple(t); }

/// Reads a u64 element count and checks it against the bytes remaining.
Status GetCount(BinaryReader* r, uint64_t* count);

/// Several fields in order.
template <typename A, typename B, typename... Rest>
void Put(BinaryWriter* w, const A& a, const B& b, const Rest&... rest) {
  Put(w, a);
  Put(w, b);
  (Put(w, rest), ...);
}
template <typename A, typename B, typename... Rest>
Status Get(BinaryReader* r, A* a, B* b, Rest*... rest) {
  Status s = Get(r, a);
  if (s.ok()) s = Get(r, b, rest...);
  return s;
}

/// std::pair, std::tuple and std::array: their fields in order.
template <typename T>
concept TupleLike = requires { std::tuple_size<T>::value; };

template <TupleLike T>
void Put(BinaryWriter* w, const T& t) {
  std::apply([w](const auto&... f) { (Put(w, f), ...); }, t);
}
template <TupleLike T>
Status Get(BinaryReader* r, T* t) {
  return std::apply([r](auto&... f) { return Get(r, &f...); }, *t);
}

namespace binary_io_internal {

template <typename Seq>
void PutSeq(BinaryWriter* w, const Seq& seq) {
  w->U64(seq.size());
  for (const auto& v : seq) Put(w, v);
}

/// Clears `*c`, then decodes a count-prefixed run of `Entry` values into
/// it; `insert` adds one and returns false on a duplicate key.
template <typename Entry, typename C, typename Insert>
Status GetSeq(BinaryReader* r, C* c, Insert insert) {
  c->clear();
  uint64_t count = 0;
  Status s = GetCount(r, &count);
  for (uint64_t i = 0; s.ok() && i < count; ++i) {
    Entry e{};
    s = Get(r, &e);
    if (s.ok() && !insert(c, std::move(e))) {
      s = Status::InvalidArgument("duplicate map key in snapshot");
    }
  }
  return s;
}

template <typename C>
Status GetElements(BinaryReader* r, C* c) {
  return GetSeq<typename C::value_type>(r, c, [](C* c, auto&& e) {
    c->insert(c->end(), std::move(e));
    return true;
  });
}

template <typename Map>
Status GetMap(BinaryReader* r, Map* m) {
  using Entry = std::pair<typename Map::key_type, typename Map::mapped_type>;
  return GetSeq<Entry>(r, m, [](Map* m, Entry&& e) {
    return m->emplace(std::move(e)).second;
  });
}

}  // namespace binary_io_internal

template <typename T, typename A>
void Put(BinaryWriter* w, const std::vector<T, A>& v) {
  binary_io_internal::PutSeq(w, v);
}
template <typename T, typename A>
Status Get(BinaryReader* r, std::vector<T, A>* v) {
  return binary_io_internal::GetElements(r, v);
}

template <typename T, typename A>
void Put(BinaryWriter* w, const std::deque<T, A>& d) {
  binary_io_internal::PutSeq(w, d);
}
template <typename T, typename A>
Status Get(BinaryReader* r, std::deque<T, A>* d) {
  return binary_io_internal::GetElements(r, d);
}

template <typename T, typename C, typename A>
void Put(BinaryWriter* w, const std::multiset<T, C, A>& m) {
  binary_io_internal::PutSeq(w, m);
}
template <typename T, typename C, typename A>
Status Get(BinaryReader* r, std::multiset<T, C, A>* m) {
  return binary_io_internal::GetElements(r, m);
}

template <typename K, typename V, typename C, typename A>
void Put(BinaryWriter* w, const std::map<K, V, C, A>& m) {
  binary_io_internal::PutSeq(w, m);
}
template <typename K, typename V, typename C, typename A>
Status Get(BinaryReader* r, std::map<K, V, C, A>* m) {
  return binary_io_internal::GetMap(r, m);
}

/// Entries in ascending key order, so equal maps encode identically
/// whatever their bucket layout.
template <typename K, typename V, typename H, typename E, typename A>
void Put(BinaryWriter* w, const std::unordered_map<K, V, H, E, A>& m) {
  std::vector<const std::pair<const K, V>*> sorted;
  sorted.reserve(m.size());
  for (const auto& entry : m) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w->U64(sorted.size());
  for (const auto* entry : sorted) Put(w, *entry);
}
template <typename K, typename V, typename H, typename E, typename A>
Status Get(BinaryReader* r, std::unordered_map<K, V, H, E, A>* m) {
  return binary_io_internal::GetMap(r, m);
}

}  // namespace flexstream

#endif  // FLEXSTREAM_UTIL_BINARY_IO_H_
