#include "util/binary_io.h"

#include <cstring>

namespace flexstream {

void BinaryWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void BinaryWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

void BinaryWriter::Value(const flexstream::Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case Value::Type::kInt64:
      I64(v.AsInt64());
      break;
    case Value::Type::kDouble:
      F64(v.AsDouble());
      break;
    case Value::Type::kString:
      Str(v.AsString());
      break;
  }
}

void BinaryWriter::Tuple(const flexstream::Tuple& t) {
  U8(static_cast<uint8_t>(t.kind()));
  I64(t.timestamp());
  U64(t.seq());
  U32(static_cast<uint32_t>(t.arity()));
  for (const auto& v : t.values()) Value(v);
}

Status BinaryReader::Take(size_t n, const char** p) {
  if (data_.size() - pos_ < n) {
    return Status::OutOfRange("binary decode past end of input");
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return Status::Ok();
}

Status BinaryReader::U8(uint8_t* v) {
  const char* p;
  Status s = Take(1, &p);
  if (!s.ok()) return s;
  *v = static_cast<uint8_t>(*p);
  return Status::Ok();
}

Status BinaryReader::U32(uint32_t* v) {
  const char* p;
  Status s = Take(4, &p);
  if (!s.ok()) return s;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return Status::Ok();
}

Status BinaryReader::U64(uint64_t* v) {
  const char* p;
  Status s = Take(8, &p);
  if (!s.ok()) return s;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *v = out;
  return Status::Ok();
}

Status BinaryReader::I64(int64_t* v) {
  uint64_t bits;
  Status s = U64(&bits);
  if (!s.ok()) return s;
  *v = static_cast<int64_t>(bits);
  return Status::Ok();
}

Status BinaryReader::F64(double* v) {
  uint64_t bits;
  Status s = U64(&bits);
  if (!s.ok()) return s;
  std::memcpy(v, &bits, sizeof(*v));
  return Status::Ok();
}

Status BinaryReader::Str(std::string* out) {
  uint32_t len;
  Status s = U32(&len);
  if (!s.ok()) return s;
  const char* p;
  s = Take(len, &p);
  if (!s.ok()) return s;
  out->assign(p, len);
  return Status::Ok();
}

Status BinaryReader::Value(flexstream::Value* v) {
  uint8_t tag;
  Status s = U8(&tag);
  if (!s.ok()) return s;
  switch (static_cast<Value::Type>(tag)) {
    case Value::Type::kInt64: {
      int64_t i;
      s = I64(&i);
      if (!s.ok()) return s;
      *v = flexstream::Value(i);
      return Status::Ok();
    }
    case Value::Type::kDouble: {
      double d;
      s = F64(&d);
      if (!s.ok()) return s;
      *v = flexstream::Value(d);
      return Status::Ok();
    }
    case Value::Type::kString: {
      std::string str;
      s = Str(&str);
      if (!s.ok()) return s;
      *v = flexstream::Value(std::move(str));
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown Value type tag " +
                                 std::to_string(tag));
}

Status BinaryReader::Tuple(flexstream::Tuple* t) {
  uint8_t kind;
  int64_t timestamp;
  uint64_t seq;
  uint32_t arity;
  Status s = U8(&kind);
  if (s.ok()) s = I64(&timestamp);
  if (s.ok()) s = U64(&seq);
  if (s.ok()) s = U32(&arity);
  if (!s.ok()) return s;
  switch (static_cast<Tuple::Kind>(kind)) {
    case Tuple::Kind::kData: {
      // Every Value costs at least its one-byte type tag, so an arity
      // beyond the remaining input is corrupt — reject it before
      // reserve() turns a garbage count into a std::length_error.
      if (arity > remaining()) {
        return Status::InvalidArgument(
            "tuple arity " + std::to_string(arity) +
            " exceeds the " + std::to_string(remaining()) +
            " bytes remaining");
      }
      std::vector<flexstream::Value> values;
      values.reserve(arity);
      for (uint32_t i = 0; i < arity; ++i) {
        flexstream::Value v;
        s = Value(&v);
        if (!s.ok()) return s;
        values.push_back(std::move(v));
      }
      *t = flexstream::Tuple(std::move(values), timestamp);
      t->set_seq(seq);
      return Status::Ok();
    }
    case Tuple::Kind::kEndOfStream:
      if (arity != 0) return Status::InvalidArgument("EOS tuple with payload");
      *t = Tuple::EndOfStream(timestamp);
      t->set_seq(seq);
      return Status::Ok();
    case Tuple::Kind::kEpochBarrier:
      if (arity != 0) {
        return Status::InvalidArgument("barrier tuple with payload");
      }
      *t = Tuple::EpochBarrier(static_cast<uint64_t>(timestamp));
      t->set_seq(seq);
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown Tuple kind tag " +
                                 std::to_string(kind));
}

Status Get(BinaryReader* r, bool* v) {
  uint8_t byte = 0;
  Status s = r->U8(&byte);
  if (!s.ok()) return s;
  if (byte > 1) {
    return Status::InvalidArgument("bool byte " + std::to_string(byte));
  }
  *v = byte == 1;
  return Status::Ok();
}

Status GetCount(BinaryReader* r, uint64_t* count) {
  Status s = r->U64(count);
  if (!s.ok()) return s;
  if (*count > r->remaining()) {
    return Status::InvalidArgument(
        "element count " + std::to_string(*count) + " exceeds the " +
        std::to_string(r->remaining()) + " bytes remaining");
  }
  return Status::Ok();
}

}  // namespace flexstream
