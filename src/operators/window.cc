#include "operators/window.h"

#include <limits>
#include <utility>

#include "util/binary_io.h"
#include "util/logging.h"

namespace flexstream {

SlidingWindow::SlidingWindow(AppTime duration_micros)
    : duration_micros_(duration_micros) {
  CHECK_GE(duration_micros, 0);
}

void SlidingWindow::Add(const Tuple& tuple) {
  DCHECK(tuple.is_data());
  DCHECK(contents_.empty() ||
         contents_.back().timestamp() <= tuple.timestamp())
      << "window input must be timestamp-monotone";
  contents_.push_back(tuple);
}

void SlidingWindow::ExpireBefore(
    AppTime watermark, const std::function<void(const Tuple&)>& on_expired) {
  while (!contents_.empty() && contents_.front().timestamp() < watermark) {
    if (on_expired) on_expired(contents_.front());
    contents_.pop_front();
  }
}

void KeyedWindow::Insert(const Tuple& tuple) {
  const Value key = tuple.at(key_attr_);
  table_[key].push_back(tuple);
  expiry_.emplace_back(key, tuple.timestamp());
}

void KeyedWindow::ExpireBefore(AppTime watermark) {
  while (!expiry_.empty() && expiry_.front().second < watermark) {
    auto it = table_.find(expiry_.front().first);
    DCHECK(it != table_.end());
    it->second.pop_front();
    if (it->second.empty()) table_.erase(it);
    expiry_.pop_front();
  }
}

void KeyedWindow::Clear() {
  table_.clear();
  expiry_.clear();
}

namespace {

/// Reads a count-prefixed run of data tuples in timestamp order — the
/// order both windows expire in — handing each to `add`.
template <typename Add>
Status GetOrderedTuples(BinaryReader* r, Add add) {
  uint64_t count = 0;
  Status s = GetCount(r, &count);
  AppTime last = std::numeric_limits<AppTime>::min();
  for (uint64_t i = 0; s.ok() && i < count; ++i) {
    Tuple tuple;
    s = Get(r, &tuple);
    if (!s.ok()) break;
    if (!tuple.is_data()) {
      return Status::InvalidArgument("window contents must be data tuples");
    }
    if (tuple.timestamp() < last) {
      return Status::InvalidArgument("window tuples out of timestamp order");
    }
    last = tuple.timestamp();
    s = add(tuple);
  }
  return s;
}

}  // namespace

void Put(BinaryWriter* w, const SlidingWindow& window) {
  Put(w, window.duration_micros(), window.contents());
}

Status Get(BinaryReader* r, SlidingWindow* window) {
  int64_t duration = 0;
  Status s = r->I64(&duration);
  if (!s.ok()) return s;
  if (duration < 0) {
    return Status::InvalidArgument("window duration negative");
  }
  *window = SlidingWindow(duration);
  return GetOrderedTuples(r, [window](const Tuple& tuple) {
    window->Add(tuple);
    return Status::Ok();
  });
}

void Put(BinaryWriter* w, const KeyedWindow& window) {
  w->U64(window.key_attr());
  w->U64(window.size());
  window.ForEachInArrivalOrder([w](const Tuple& tuple) { w->Tuple(tuple); });
}

Status Get(BinaryReader* r, KeyedWindow* window) {
  uint64_t key_attr = 0;
  Status s = r->U64(&key_attr);
  if (!s.ok()) return s;
  *window = KeyedWindow(key_attr);
  return GetOrderedTuples(r, [window, key_attr](const Tuple& tuple) {
    if (tuple.arity() <= key_attr) {
      return Status::InvalidArgument("join window tuple lacks its key");
    }
    window->Insert(tuple);
    return Status::Ok();
  });
}

}  // namespace flexstream
