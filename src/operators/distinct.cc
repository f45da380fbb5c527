#include "operators/distinct.h"

#include <utility>

#include "util/logging.h"

namespace flexstream {

size_t Distinct::KeyHash::operator()(const std::vector<Value>& key) const {
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : key) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

Distinct::Distinct(std::string name, AppTime window_micros,
                   std::vector<size_t> key_attrs)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1),
      key_attrs_(std::move(key_attrs)),
      window_(window_micros) {}

void Distinct::Reset() {
  Operator::Reset();
  window_.Clear();
  live_.clear();
}

std::vector<Value> Distinct::KeyOf(const Tuple& tuple) const {
  if (key_attrs_.empty()) return tuple.values();
  std::vector<Value> key;
  key.reserve(key_attrs_.size());
  for (size_t a : key_attrs_) key.push_back(tuple.at(a));
  return key;
}

void Distinct::Process(const Tuple& tuple, int port) {
  (void)port;
  window_.ExpireBefore(
      window_.WatermarkFor(tuple.timestamp()), [&](const Tuple& expired) {
        auto it = live_.find(KeyOf(expired));
        DCHECK(it != live_.end());
        if (--it->second == 0) live_.erase(it);
      });
  std::vector<Value> key = KeyOf(tuple);
  auto it = live_.try_emplace(std::move(key), 0).first;
  const bool first_in_window = it->second == 0;
  ++it->second;
  window_.Add(tuple);
  if (first_in_window) Emit(tuple);
}

void Distinct::InstallState(const State& state) {
  window_ = state;
  live_.clear();
  for (const Tuple& tuple : window_.contents()) ++live_[KeyOf(tuple)];
}

Status Distinct::Decode(BinaryReader* r, State* state) const {
  Status s = Get(r, state);
  if (!s.ok()) return s;
  for (const Tuple& tuple : state->contents()) {
    for (size_t a : key_attrs_) {
      if (a >= tuple.arity()) {
        return Status::InvalidArgument("malformed distinct snapshot tuple");
      }
    }
  }
  return Status::Ok();
}
}  // namespace flexstream
