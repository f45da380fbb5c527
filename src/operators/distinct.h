// Windowed duplicate elimination.
//
// Emits an element iff no equal element (compared on a configurable
// attribute subset; empty = all attributes) currently resides in the
// sliding window. Unbounded streams make exact DISTINCT impossible with
// finite state, so — as everywhere in a DSMS — the semantics are
// window-relative.

#ifndef FLEXSTREAM_OPERATORS_DISTINCT_H_
#define FLEXSTREAM_OPERATORS_DISTINCT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "operators/operator.h"
#include "operators/window.h"
#include "recovery/state_snapshot.h"

namespace flexstream {

/// State: the window alone. The live-key counts are an exact function of
/// its contents (KeyOf over every buffered tuple), so restoring recounts
/// them.
class Distinct : public Operator, public StatefulOperatorOf<SlidingWindow> {
 public:
  /// `key_attrs` selects the attributes compared for equality; empty
  /// means the whole tuple (all attributes, not the timestamp).
  Distinct(std::string name, AppTime window_micros,
           std::vector<size_t> key_attrs = {});

  void Reset() override;

  size_t window_size() const { return window_.size(); }

  std::unique_ptr<Operator> CloneFresh(std::string name) const override {
    return std::make_unique<Distinct>(std::move(name),
                                      window_.duration_micros(), key_attrs_);
  }

 protected:
  void Process(const Tuple& tuple, int port) override;

 private:
  State CaptureState() const override { return window_; }
  void InstallState(const State& state) override;
  int64_t ElementCount(const State& state) const override {
    return static_cast<int64_t>(state.size());
  }
  /// Also requires every tuple to carry the key attributes.
  Status Decode(BinaryReader* r, State* state) const override;

  struct KeyHash {
    size_t operator()(const std::vector<Value>& key) const;
  };

  std::vector<Value> KeyOf(const Tuple& tuple) const;

  std::vector<size_t> key_attrs_;
  SlidingWindow window_;
  // Occurrence count per live key (window contents may hold duplicates of
  // suppressed elements' keys — every arrival enters the window so
  // expiration bookkeeping stays exact).
  std::unordered_map<std::vector<Value>, int64_t, KeyHash> live_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_DISTINCT_H_
