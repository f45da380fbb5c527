#include "operators/multiway_join.h"

#include <algorithm>
#include <utility>

#include "util/binary_io.h"
#include "util/logging.h"

namespace flexstream {

MultiwayJoin::MultiwayJoin(std::string name, AppTime window_micros,
                           std::vector<size_t> key_attrs)
    : Operator(Kind::kOperator, std::move(name),
               static_cast<int>(key_attrs.size())),
      window_micros_(window_micros) {
  CHECK_GE(key_attrs.size(), 2u);
  for (size_t key_attr : key_attrs) inputs_.emplace_back(key_attr);
}

void MultiwayJoin::Reset() {
  Operator::Reset();
  for (KeyedWindow& in : inputs_) in.Clear();
}

void MultiwayJoin::ProbeFrom(const Value& key, int arrival,
                             size_t next_input,
                             std::vector<const Tuple*>* parts,
                             AppTime out_ts) {
  if (next_input == inputs_.size()) {
    std::vector<Value> values;
    for (const Tuple* part : *parts) {
      values.insert(values.end(), part->values().begin(),
                    part->values().end());
    }
    EmitMove(Tuple(std::move(values), out_ts));
    return;
  }
  if (static_cast<int>(next_input) == arrival) {
    ProbeFrom(key, arrival, next_input + 1, parts, out_ts);
    return;
  }
  const std::deque<Tuple>* matches = inputs_[next_input].Find(key);
  if (matches == nullptr) return;
  const Tuple& arrived = *(*parts)[static_cast<size_t>(arrival)];
  for (const Tuple& match : *matches) {
    // Window-band check relative to the arriving tuple (see
    // symmetric_hash_join.cc): schedule-independent combinations only.
    if (match.timestamp() < arrived.timestamp() - window_micros_ ||
        match.timestamp() > arrived.timestamp() + window_micros_) {
      continue;
    }
    (*parts)[next_input] = &match;
    ProbeFrom(key, arrival, next_input + 1, parts,
              std::max(out_ts, match.timestamp()));
  }
}

void MultiwayJoin::Process(const Tuple& tuple, int port) {
  DCHECK_GE(port, 0);
  DCHECK_LT(port, num_inputs());
  const AppTime watermark = tuple.timestamp() - window_micros_;
  for (KeyedWindow& in : inputs_) in.ExpireBefore(watermark);
  const Value key = tuple.at(inputs_[static_cast<size_t>(port)].key_attr());
  std::vector<const Tuple*> parts(inputs_.size(), nullptr);
  parts[static_cast<size_t>(port)] = &tuple;
  ProbeFrom(key, port, 0, &parts, tuple.timestamp());
  inputs_[static_cast<size_t>(port)].Insert(tuple);
}

int64_t MultiwayJoin::ElementCount(const State& state) const {
  size_t total = 0;
  for (const KeyedWindow& in : state) total += in.size();
  return static_cast<int64_t>(total);
}

void MultiwayJoin::Encode(const State& state, BinaryWriter* w) const {
  w->U32(static_cast<uint32_t>(state.size()));
  for (const KeyedWindow& in : state) Put(w, in);
}

Status MultiwayJoin::Decode(BinaryReader* r, State* state) const {
  uint32_t n = 0;
  Status s = r->U32(&n);
  if (!s.ok()) return s;
  if (n != inputs_.size()) {
    return Status::InvalidArgument(
        "multiway-join snapshot input count does not match operator");
  }
  state->resize(n);
  for (size_t i = 0; i < n; ++i) {
    s = Get(r, &(*state)[i]);
    if (!s.ok()) return s;
    if ((*state)[i].key_attr() != inputs_[i].key_attr()) {
      return Status::InvalidArgument(
          "multiway-join snapshot key attribute does not match operator");
    }
  }
  return Status::Ok();
}
}  // namespace flexstream
