// The operator state Snapshot/Restore API of the checkpoint subsystem.
//
// When an operator has seen the epoch-k barrier on all of its open input
// channels (operators/operator.h barrier alignment), its state reflects
// exactly the elements of epochs 1..k — nothing more, nothing less. At
// that instant the checkpoint coordinator captures the state of every
// operator implementing StatefulOperator. If the run later fails, the
// recovery manager resets the graph, re-installs the snapshots of the last
// *committed* epoch and replays the retained post-epoch input, giving
// exactly-once results at the sinks (DESIGN.md §10).
//
// Every stateful operator derives from StatefulOperatorOf<State>, which
// writes the protocol once over the operator's typed State. The operator
// supplies three hooks — CaptureState (a copy of its tables), InstallState
// and ElementCount — and the template does the rest:
//   * In-memory snapshots hold that typed copy in a std::any; nothing is
//     encoded on the epoch path.
//   * Durable checkpoints (DESIGN.md §16) encode the same State with the
//     generic codec of util/binary_io.h (Put/Get): the snapshot store
//     persists the bytes per committed epoch and ColdRestart decodes them
//     into a freshly built graph after a process death. Decoding checks
//     the payload type, rejects trailing bytes and derives element_count.
//     An operator overrides Encode/Decode only where its format or its
//     validation depends on its configuration.
// The encoding is deterministic — encode(decode(bytes)) == bytes — and
// pinned byte-exactly per operator by tests/state_serde_test.cc.

#ifndef FLEXSTREAM_RECOVERY_STATE_SNAPSHOT_H_
#define FLEXSTREAM_RECOVERY_STATE_SNAPSHOT_H_

#include <any>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/binary_io.h"
#include "util/status.h"

namespace flexstream {

/// One operator's state at an epoch boundary.
struct OperatorSnapshot {
  /// The epoch whose barrier alignment produced this snapshot.
  uint64_t epoch = 0;
  /// The operator's typed State (see StatefulOperatorOf), type-erased.
  std::any state;
  /// Number of buffered elements/groups the snapshot holds — feeds the
  /// recovery stats table (BuildRecoveryTable), not restore logic.
  int64_t element_count = 0;
};

/// Implemented by operators whose state must survive recovery: join
/// tables, window buffers, aggregation groups, and the result buffers of
/// exactly-once sinks. The engine holds operators through this interface;
/// operators implement it by deriving from StatefulOperatorOf.
///
/// Snapshot runs during barrier alignment and Restore while the engine is
/// quiesced, both in the operator's own executing thread, so
/// implementations need no locking beyond what the operator already has.
class StatefulOperator {
 public:
  virtual ~StatefulOperator() = default;

  /// Captures a self-contained copy of the operator's mutable state.
  /// `epoch` is filled in by the caller.
  virtual OperatorSnapshot SnapshotState() const = 0;

  /// Replaces the operator's state with `snapshot`'s payload. Called after
  /// Node::Reset(), i.e. on a fresh operator. Must accept any value
  /// previously produced by SnapshotState() of the same operator type.
  virtual void RestoreState(const OperatorSnapshot& snapshot) = 0;

  /// Serializes `snapshot`'s payload (a value this operator's
  /// SnapshotState produced) into the canonical byte encoding, appending
  /// to `*out`. Deterministic: the same payload always yields the same
  /// bytes. Thread-safe — reads only the snapshot and construction-time
  /// configuration.
  virtual Status EncodeState(const OperatorSnapshot& snapshot,
                             std::string* out) const = 0;

  /// Inverse of EncodeState: rebuilds a snapshot payload this operator's
  /// RestoreState accepts. The caller fills in `epoch`. Fails cleanly
  /// (never UB) on torn or corrupted bytes.
  virtual Result<OperatorSnapshot> DecodeState(
      std::string_view bytes) const = 0;
};

/// The StatefulOperator protocol over an operator's typed `State`, which
/// must be default-constructible and copyable.
template <typename StateT>
class StatefulOperatorOf : public StatefulOperator {
 public:
  using State = StateT;

  OperatorSnapshot SnapshotState() const final {
    OperatorSnapshot snap;
    State state = CaptureState();
    snap.element_count = ElementCount(state);
    snap.state = std::move(state);
    return snap;
  }

  void RestoreState(const OperatorSnapshot& snapshot) final {
    InstallState(std::any_cast<const State&>(snapshot.state));
  }

  Status EncodeState(const OperatorSnapshot& snapshot,
                     std::string* out) const final {
    const State* state = StateOf(snapshot);
    if (state == nullptr) {
      return Status::InvalidArgument(
          "snapshot does not hold this operator's state type");
    }
    BinaryWriter w(out);
    Encode(*state, &w);
    return Status::Ok();
  }

  Result<OperatorSnapshot> DecodeState(std::string_view bytes) const final {
    BinaryReader r(bytes);
    State state{};
    Status s = Decode(&r, &state);
    if (!s.ok()) return s;
    if (!r.done()) {
      return Status::InvalidArgument("trailing bytes in operator snapshot");
    }
    OperatorSnapshot snap;
    snap.element_count = ElementCount(state);
    snap.state = std::move(state);
    return snap;
  }

  /// The typed state `snapshot` holds; nullptr when it holds another type.
  static const State* StateOf(const OperatorSnapshot& snapshot) {
    return std::any_cast<State>(&snapshot.state);
  }

 protected:
  /// A copy of the operator's mutable state.
  virtual State CaptureState() const = 0;
  /// Replaces the operator's state with `state`.
  virtual void InstallState(const State& state) = 0;
  /// Buffered elements or groups in `state`, for the stats tables.
  virtual int64_t ElementCount(const State& state) const = 0;

  /// The durable byte format; the generic codec unless overridden.
  virtual void Encode(const State& state, BinaryWriter* w) const {
    Put(w, state);
  }
  virtual Status Decode(BinaryReader* r, State* state) const {
    return Get(r, state);
  }
};

}  // namespace flexstream

#endif  // FLEXSTREAM_RECOVERY_STATE_SNAPSHOT_H_
