// Time-based window buffers: SlidingWindow for the windowed aggregates,
// Distinct and the nested-loops join; KeyedWindow, the same window indexed
// by a key attribute, for each input of the hash joins.
//
// Windows in flexstream are defined over *application time* (the timestamp
// carried in each tuple), so window contents are a deterministic function
// of the logical stream — experiments can be replayed faster or slower
// than real time without changing results (see DESIGN.md).
//
// Streams are assumed to be timestamp-monotone per input edge; the window
// expires from the front as the watermark advances. This matches the
// paper's Section 6.3 setup ("a one minute sliding window").

#ifndef FLEXSTREAM_OPERATORS_WINDOW_H_
#define FLEXSTREAM_OPERATORS_WINDOW_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>

#include "tuple/tuple.h"
#include "tuple/value.h"
#include "util/status.h"

namespace flexstream {

class BinaryReader;
class BinaryWriter;

class SlidingWindow {
 public:
  SlidingWindow() = default;
  /// `duration_micros` is the window length w: a tuple with timestamp ts
  /// stays in the window while the watermark is <= ts + w.
  explicit SlidingWindow(AppTime duration_micros);

  void Add(const Tuple& tuple);

  /// Removes all tuples with timestamp < watermark, oldest first, invoking
  /// `on_expired` (if non-null) for each removed tuple.
  void ExpireBefore(AppTime watermark,
                    const std::function<void(const Tuple&)>& on_expired = {});

  /// Watermark for an arrival at time `now`: now - duration.
  AppTime WatermarkFor(AppTime now) const { return now - duration_micros_; }

  const std::deque<Tuple>& contents() const { return contents_; }
  size_t size() const { return contents_.size(); }
  bool empty() const { return contents_.empty(); }
  AppTime duration_micros() const { return duration_micros_; }

  void Clear() { contents_.clear(); }

 private:
  AppTime duration_micros_ = 0;
  std::deque<Tuple> contents_;
};

/// Durable form (DESIGN.md §16): duration, then the contents in window
/// order. Decoding rejects contents out of timestamp order, which
/// ExpireBefore could not expire correctly.
void Put(BinaryWriter* w, const SlidingWindow& window);
Status Get(BinaryReader* r, SlidingWindow* window);

/// One join input's window: the stored tuples indexed by their key
/// attribute, plus an arrival-order expiry queue. Inputs are
/// timestamp-monotone, so the oldest tuple of each key is at the front of
/// its bucket and expiration pops from the fronts.
class KeyedWindow {
 public:
  KeyedWindow() = default;
  explicit KeyedWindow(size_t key_attr) : key_attr_(key_attr) {}

  void Insert(const Tuple& tuple);
  /// Removes all tuples with timestamp < watermark, oldest first.
  void ExpireBefore(AppTime watermark);
  void Clear();

  /// The stored tuples with `key`, oldest first; nullptr when none.
  const std::deque<Tuple>* Find(const Value& key) const {
    auto it = table_.find(key);
    return it == table_.end() ? nullptr : &it->second;
  }

  /// Calls `fn` on every stored tuple in arrival order.
  template <typename Fn>
  void ForEachInArrivalOrder(Fn&& fn) const {
    // The i-th expiry entry for key k pairs with the i-th tuple of k's
    // bucket (both FIFO), so a per-key cursor walk recovers the arrivals.
    std::unordered_map<Value, size_t, ValueHash> cursor;
    for (const auto& entry : expiry_) {
      fn(table_.at(entry.first)[cursor[entry.first]++]);
    }
  }

  size_t key_attr() const { return key_attr_; }
  size_t size() const { return expiry_.size(); }
  /// Timestamp of the newest stored tuple. Requires size() > 0.
  AppTime latest() const { return expiry_.back().second; }

 private:
  size_t key_attr_ = 0;
  std::unordered_map<Value, std::deque<Tuple>, ValueHash> table_;
  // (key, timestamp) in arrival order for expiration.
  std::deque<std::pair<Value, AppTime>> expiry_;
};

/// Durable form: key attribute, count, then the stored tuples in arrival
/// order. Decoding rejects tuples out of timestamp order or without the
/// key attribute.
void Put(BinaryWriter* w, const KeyedWindow& window);
Status Get(BinaryReader* r, KeyedWindow* window);

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_WINDOW_H_
