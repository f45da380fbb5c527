// Binary symmetric hash join (SHJ) over sliding time windows.
//
// The join of Section 6.3's decoupling experiment. Each side is a
// KeyedWindow (operators/window.h): a hash table keyed on its join
// attribute plus an expiration queue. An arriving element expires both
// windows, probes the opposite hash table, emits one concatenated result
// per match, and is inserted into its own side. Output attribute order is
// always (left-tuple attrs, right-tuple attrs) regardless of which side
// arrived.
//
// Expiry follows the slower input: both windows expire at
// min(arriving ts, the other input's highest timestamp so far) - w, and an
// input's end-of-stream lifts its mark. An input running ahead therefore
// cannot expire tuples the lagging input may still match: with each input
// timestamp-ordered, every pair within the window joins, whatever the
// schedule. The price: while one input has delivered nothing, nothing
// expires, so the other input's window grows until the silent input
// delivers or closes — also after a restore with one side's window empty
// (its mark restarts unknown), and on a shard replica whose keys appear on
// one side only.

#ifndef FLEXSTREAM_OPERATORS_SYMMETRIC_HASH_JOIN_H_
#define FLEXSTREAM_OPERATORS_SYMMETRIC_HASH_JOIN_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "operators/window.h"
#include "recovery/state_snapshot.h"
#include "tuple/columnar_batch.h"
#include "util/status.h"

namespace flexstream {

class SymmetricHashJoin
    : public Operator,
      public StatefulOperatorOf<std::array<KeyedWindow, 2>> {
 public:
  static constexpr int kLeftPort = 0;
  static constexpr int kRightPort = 1;

  /// `window_micros` is the sliding-window length applied to both sides.
  /// `left_key_attr` / `right_key_attr` select the equi-join attributes.
  SymmetricHashJoin(std::string name, AppTime window_micros,
                    size_t left_key_attr = 0, size_t right_key_attr = 0);

  void Reset() override;
  void OnInputEos(const Node* sender, int port) override;

  /// Current number of stored tuples (both windows) — the join's state
  /// size, one of the memory metrics benchmarks report.
  size_t StateSize() const { return sides_[0].size() + sides_[1].size(); }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override;

  /// Redistributes the committed snapshots of N replicas of this join
  /// (key-partitioned on both sides' join attributes) into `new_n`
  /// partitions, assigning every stored tuple to
  /// Router::HashValue(key) % new_n — exactly how a sequencing Router
  /// routes live elements, so a restore with a different shard count sees
  /// every tuple where future probes will look for it. `this` supplies the
  /// join parameters; its own state is untouched. Per-side arrival order
  /// is rebuilt by a timestamp-stable merge (expiration requires monotone
  /// expiry queues).
  Result<std::vector<OperatorSnapshot>> RepartitionSnapshots(
      const std::vector<OperatorSnapshot>& snapshots, size_t new_n) const;

 protected:
  void Process(const Tuple& tuple, int port) override;
  /// Takes batches whose schema has the port's key attribute.
  bool AcceptsColumnar(const Schema& schema, int port) const override;
  /// Columnar inner loop: typed-key probes read the key column directly
  /// (an int64 key never touches a Tuple until a row is inserted or
  /// matched), timestamps come from the batch's timestamp column, and the
  /// per-row Receive overhead is gone. Expire/probe/insert order — and
  /// hence the result multiset — is identical to the row path.
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override;

 private:
  State CaptureState() const override { return sides_; }
  /// The marks are derived from the held windows: never above the true
  /// marks, so a restored join never expires more than the original.
  void InstallState(const State& state) override;
  int64_t ElementCount(const State& state) const override {
    return static_cast<int64_t>(state[0].size() + state[1].size());
  }
  /// Also requires each side's key attribute to match this join's.
  Status Decode(BinaryReader* r, State* state) const override;

  /// Expires both windows for an arrival at `ts` on `port`, then raises
  /// that port's mark.
  void ExpireFor(AppTime ts, int port);

  AppTime window_micros_;
  State sides_;
  // Highest timestamp seen per input (kNoMark before its first element,
  // the maximum once all its edges closed), and closed edges per input.
  std::array<AppTime, 2> marks_;
  std::array<size_t, 2> closed_edges_{};
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_SYMMETRIC_HASH_JOIN_H_
