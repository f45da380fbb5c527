// Binary symmetric nested-loops join (SNJ) over sliding time windows.
//
// The second join of Section 6.3. Supports arbitrary join predicates; an
// arriving element scans the entire opposite window, which makes its
// per-element cost proportional to the window population — exactly why
// Figure 6 shows SNJ falling behind the input rate much earlier than SHJ.

#ifndef FLEXSTREAM_OPERATORS_SYMMETRIC_NL_JOIN_H_
#define FLEXSTREAM_OPERATORS_SYMMETRIC_NL_JOIN_H_

#include <array>
#include <functional>
#include <string>

#include "operators/operator.h"
#include "operators/window.h"
#include "recovery/state_snapshot.h"

namespace flexstream {

class SymmetricNlJoin
    : public Operator,
      public StatefulOperatorOf<std::array<SlidingWindow, 2>> {
 public:
  static constexpr int kLeftPort = 0;
  static constexpr int kRightPort = 1;

  /// Predicate over (left tuple, right tuple).
  using Predicate = std::function<bool(const Tuple&, const Tuple&)>;

  SymmetricNlJoin(std::string name, AppTime window_micros,
                  Predicate predicate);

  /// Equality predicate on one attribute per side (equi-join), matching
  /// the SHJ configuration for head-to-head comparisons.
  static Predicate EqualAttr(size_t left_attr, size_t right_attr);

  void Reset() override;

  size_t StateSize() const {
    return static_cast<size_t>(ElementCount(windows_));
  }

 protected:
  void Process(const Tuple& tuple, int port) override;

 private:
  State CaptureState() const override { return windows_; }
  void InstallState(const State& state) override { windows_ = state; }
  int64_t ElementCount(const State& state) const override {
    return static_cast<int64_t>(state[0].size() + state[1].size());
  }
  /// Also requires both window durations to match this join's.
  Status Decode(BinaryReader* r, State* state) const override;

  Predicate predicate_;
  State windows_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_SYMMETRIC_NL_JOIN_H_
