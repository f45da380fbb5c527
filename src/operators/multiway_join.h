// N-ary symmetric hash join (MJoin) over sliding time windows.
//
// The paper's related-work section cites Viglas et al.'s multi-way join
// as a natural virtual operator: "because the join does not materialize
// intermediate results, a join with n inputs can be seen as a VO with n
// inputs and one output" (Section 7). This operator implements that: an
// equi-join of n input streams on one attribute per input, probing the
// other n-1 windows without materializing intermediate join results.
// Output attributes are concatenated in input-index order.

#ifndef FLEXSTREAM_OPERATORS_MULTIWAY_JOIN_H_
#define FLEXSTREAM_OPERATORS_MULTIWAY_JOIN_H_

#include <string>
#include <vector>

#include "operators/operator.h"
#include "operators/window.h"
#include "recovery/state_snapshot.h"

namespace flexstream {

class MultiwayJoin : public Operator,
                     public StatefulOperatorOf<std::vector<KeyedWindow>> {
 public:
  /// One stream per entry of `key_attrs`; input i joins on attribute
  /// key_attrs[i]. Requires at least 2 inputs.
  MultiwayJoin(std::string name, AppTime window_micros,
               std::vector<size_t> key_attrs);

  void Reset() override;

  size_t StateSize() const {
    return static_cast<size_t>(ElementCount(inputs_));
  }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }

 protected:
  void Process(const Tuple& tuple, int port) override;

 private:
  State CaptureState() const override { return inputs_; }
  void InstallState(const State& state) override { inputs_ = state; }
  int64_t ElementCount(const State& state) const override;
  /// A u32 input count, then each input's window; decoding requires the
  /// count and every key attribute to match this join's.
  void Encode(const State& state, BinaryWriter* w) const override;
  Status Decode(BinaryReader* r, State* state) const override;

  /// Depth-first probe across inputs != arrival input, emitting complete
  /// combinations. `parts[i]` holds the tuple chosen for input i.
  void ProbeFrom(const Value& key, int arrival, size_t next_input,
                 std::vector<const Tuple*>* parts, AppTime out_ts);

  AppTime window_micros_;
  State inputs_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_MULTIWAY_JOIN_H_
