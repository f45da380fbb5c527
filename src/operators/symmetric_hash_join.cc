#include "operators/symmetric_hash_join.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "operators/router.h"
#include "tuple/batch_pool.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace flexstream {
namespace {

constexpr AppTime kNoMark = std::numeric_limits<AppTime>::min();
constexpr AppTime kClosedMark = std::numeric_limits<AppTime>::max();

}  // namespace

SymmetricHashJoin::SymmetricHashJoin(std::string name, AppTime window_micros,
                                     size_t left_key_attr,
                                     size_t right_key_attr)
    : Operator(Kind::kOperator, std::move(name), /*input_arity=*/2),
      window_micros_(window_micros),
      sides_{KeyedWindow(left_key_attr), KeyedWindow(right_key_attr)},
      marks_{kNoMark, kNoMark} {}

void SymmetricHashJoin::Reset() {
  Operator::Reset();
  for (KeyedWindow& side : sides_) side.Clear();
  marks_ = {kNoMark, kNoMark};
  closed_edges_ = {0, 0};
}

void SymmetricHashJoin::OnInputEos(const Node* sender, int port) {
  (void)sender;
  size_t edges = 0;
  for (const InEdge& in : inputs()) edges += in.port == port ? 1 : 0;
  if (++closed_edges_[port] >= edges) marks_[port] = kClosedMark;
}

void SymmetricHashJoin::InstallState(const State& state) {
  sides_ = state;
  for (int s = 0; s < 2; ++s) {
    marks_[s] = sides_[s].size() == 0 ? kNoMark : sides_[s].latest();
  }
  closed_edges_ = {0, 0};
}

void SymmetricHashJoin::ExpireFor(AppTime ts, int port) {
  const AppTime other = marks_[1 - port];
  if (other != kNoMark) {
    const AppTime watermark = std::min(ts, other) - window_micros_;
    sides_[0].ExpireBefore(watermark);
    sides_[1].ExpireBefore(watermark);
  }
  marks_[port] = std::max(marks_[port], ts);
}

void SymmetricHashJoin::Process(const Tuple& tuple, int port) {
  DCHECK(port == kLeftPort || port == kRightPort);
  KeyedWindow& own = sides_[port];
  KeyedWindow& other = sides_[1 - port];
  ExpireFor(tuple.timestamp(), port);
  const AppTime band_low = tuple.timestamp() - window_micros_;
  const std::deque<Tuple>* matches = other.Find(tuple.at(own.key_attr()));
  if (matches != nullptr) {
    for (const Tuple& match : *matches) {
      // Explicit window-band check: a pair joins iff each element lies in
      // the other's window (|delta ts| <= w). Expiry keeps every tuple a
      // lagging input may still match, so it keeps older ones too; the
      // result multiset must not depend on the schedule (Section 2.4).
      if (match.timestamp() < band_low ||
          match.timestamp() > tuple.timestamp() + window_micros_) {
        continue;
      }
      if (port == kLeftPort) {
        EmitMove(Tuple::Concat(tuple, match));
      } else {
        EmitMove(Tuple::Concat(match, tuple));
      }
    }
  }
  own.Insert(tuple);
}

bool SymmetricHashJoin::AcceptsColumnar(const Schema& schema,
                                        int port) const {
  return sides_[port].key_attr() < schema.arity();
}

void SymmetricHashJoin::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  DCHECK(port == kLeftPort || port == kRightPort);
  KeyedWindow& own = sides_[port];
  KeyedWindow& other = sides_[1 - port];
  const Schema& schema = batch->schema();
  const size_t key_attr = own.key_attr();
  const Value::Type key_type = schema.type(key_attr);
  const int64_t* int_keys =
      key_type == Value::Type::kInt64 ? batch->Ints(key_attr) : nullptr;
  const AppTime* ts = batch->Timestamps();
  const size_t n = batch->size();
  for (size_t i = 0; i < n; ++i) {
    ExpireFor(ts[i], port);
    const AppTime band_low = ts[i] - window_micros_;
    Value key;
    if (int_keys != nullptr) {
      key = Value(int_keys[i]);
    } else if (key_type == Value::Type::kDouble) {
      key = Value(batch->Doubles(key_attr)[i]);
    } else {
      key = Value(std::string(batch->StringAt(key_attr, i)));
    }
    const std::deque<Tuple>* matches = other.Find(key);
    // Every row is inserted into its own side, so each is materialized
    // exactly once; matches are emitted before the insertion, matching
    // the row path's expire/probe/insert order.
    Tuple tuple = batch->MaterializeRow(i);
    if (matches != nullptr) {
      for (const Tuple& match : *matches) {
        if (match.timestamp() < band_low ||
            match.timestamp() > ts[i] + window_micros_) {
          continue;
        }
        if (port == kLeftPort) {
          EmitMove(Tuple::Concat(tuple, match));
        } else {
          EmitMove(Tuple::Concat(match, tuple));
        }
      }
    }
    own.Insert(tuple);
  }
  columnar::ReleaseBatch(std::move(batch));
}

Status SymmetricHashJoin::Decode(BinaryReader* r, State* state) const {
  Status s = Get(r, state);
  if (!s.ok()) return s;
  for (int side = 0; side < 2; ++side) {
    if ((*state)[side].key_attr() != sides_[side].key_attr()) {
      return Status::InvalidArgument(
          "join snapshot key attribute does not match operator");
    }
  }
  return Status::Ok();
}

std::unique_ptr<Operator> SymmetricHashJoin::CloneFresh(
    std::string name) const {
  return std::make_unique<SymmetricHashJoin>(std::move(name), window_micros_,
                                             sides_[kLeftPort].key_attr(),
                                             sides_[kRightPort].key_attr());
}

Result<std::vector<OperatorSnapshot>> SymmetricHashJoin::RepartitionSnapshots(
    const std::vector<OperatorSnapshot>& snapshots, size_t new_n) const {
  if (new_n == 0) {
    return Status::InvalidArgument("cannot repartition into 0 shards");
  }
  if (snapshots.empty()) {
    return Status::InvalidArgument("no replica snapshots to repartition");
  }
  const State empty = {KeyedWindow(sides_[kLeftPort].key_attr()),
                       KeyedWindow(sides_[kRightPort].key_attr())};
  std::vector<State> shards(new_n, empty);
  for (int s = 0; s < 2; ++s) {
    std::vector<Tuple> arrivals;
    for (const OperatorSnapshot& snap : snapshots) {
      if (snap.epoch != snapshots.front().epoch) {
        return Status::FailedPrecondition(
            "replica snapshots span different epochs");
      }
      const State* replica = StateOf(snap);
      if (replica == nullptr) {
        return Status::InvalidArgument("snapshot is not a join snapshot");
      }
      (*replica)[s].ForEachInArrivalOrder(
          [&arrivals](const Tuple& tuple) { arrivals.push_back(tuple); });
    }
    // Merge the replicas into one timestamp-ordered stream. Each replica's
    // stream is timestamp-monotone, so a stable sort is a valid merge; the
    // expiry queues of the new shards come out monotone as required.
    std::stable_sort(
        arrivals.begin(), arrivals.end(),
        [](const Tuple& a, const Tuple& b) {
          return a.timestamp() < b.timestamp();
        });
    for (const Tuple& tuple : arrivals) {
      const size_t shard =
          Router::HashValue(tuple.at(sides_[s].key_attr())) % new_n;
      shards[shard][s].Insert(tuple);
    }
  }
  std::vector<OperatorSnapshot> out(new_n);
  for (size_t i = 0; i < new_n; ++i) {
    out[i].epoch = snapshots.front().epoch;
    out[i].element_count = ElementCount(shards[i]);
    out[i].state = std::move(shards[i]);
  }
  return out;
}
}  // namespace flexstream
