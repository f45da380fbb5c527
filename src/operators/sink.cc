#include "operators/sink.h"

#include <utility>

#include "tuple/batch_pool.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace flexstream {

Sink::Sink(std::string name)
    : Operator(Kind::kSink, std::move(name), kVariadicArity) {}

void Sink::WaitUntilClosed() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
}

bool Sink::WaitUntilClosedFor(Duration timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, timeout, [&] { return done_; });
}

void Sink::Reset() {
  Operator::Reset();
  std::lock_guard<std::mutex> lock(mutex_);
  done_ = false;
}

void Sink::Process(const Tuple& tuple, int port) { Consume(tuple, port); }

void Sink::ProcessBatch(TupleBatch&& batch, int port) {
  ConsumeBatch(std::move(batch), port);
}

void Sink::ConsumeBatch(TupleBatch&& batch, int port) {
  for (const Tuple& tuple : batch) Consume(tuple, port);
}

void Sink::OnAllInputsClosed(AppTime timestamp) {
  (void)timestamp;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
}

CountingSink::CountingSink(std::string name) : Sink(std::move(name)) {
  MarkColumnarNative();
}

void CountingSink::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  if (timeline_enabled_) {
    // One (time, cumulative count) sample per arrival: row path.
    ProcessBatch(columnar::MaterializeAndRelease(std::move(batch)), port);
    return;
  }
  count_.fetch_add(static_cast<int64_t>(batch->size()),
                   std::memory_order_relaxed);
  columnar::ReleaseBatch(std::move(batch));
}

void CountingSink::StartTimeline(TimePoint start) {
  std::lock_guard<std::mutex> lock(timeline_mutex_);
  timeline_enabled_ = true;
  timeline_start_ = start;
  timeline_.clear();
}

std::vector<std::pair<double, int64_t>> CountingSink::TakeTimeline() {
  std::lock_guard<std::mutex> lock(timeline_mutex_);
  timeline_enabled_ = false;
  return std::move(timeline_);
}

void CountingSink::Reset() {
  Sink::Reset();
  count_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(timeline_mutex_);
  timeline_.clear();
}

void CountingSink::Consume(const Tuple& tuple, int port) {
  (void)tuple;
  (void)port;
  const int64_t n = count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (timeline_enabled_) {
    std::lock_guard<std::mutex> lock(timeline_mutex_);
    if (timeline_enabled_) {
      timeline_.emplace_back(ToSeconds(Now() - timeline_start_), n);
    }
  }
}

void CountingSink::ConsumeBatch(TupleBatch&& batch, int port) {
  if (timeline_enabled_) {
    // The timeline wants one (time, cumulative count) sample per arrival:
    // keep the per-tuple path.
    Sink::ConsumeBatch(std::move(batch), port);
    return;
  }
  count_.fetch_add(static_cast<int64_t>(batch.size()),
                   std::memory_order_relaxed);
}

OperatorSnapshot CountingSink::SnapshotState() const {
  OperatorSnapshot snap;
  snap.state = count_.load(std::memory_order_relaxed);
  snap.element_count = count_.load(std::memory_order_relaxed);
  return snap;
}

void CountingSink::RestoreState(const OperatorSnapshot& snapshot) {
  count_.store(std::any_cast<int64_t>(snapshot.state),
               std::memory_order_relaxed);
}

Status CountingSink::EncodeState(const OperatorSnapshot& snapshot,
                                 std::string* out) const {
  int64_t count = 0;
  if (snapshot.state.has_value()) {
    const int64_t* p = std::any_cast<int64_t>(&snapshot.state);
    if (p == nullptr) {
      return Status::InvalidArgument(
          "snapshot is not a counting-sink snapshot");
    }
    count = *p;
  }
  BinaryWriter(out).I64(count);
  return Status::Ok();
}

Result<OperatorSnapshot> CountingSink::DecodeState(
    std::string_view bytes) const {
  BinaryReader r(bytes);
  int64_t count = 0;
  Status st = r.I64(&count);
  if (!st.ok()) return st;
  if (!r.done()) {
    return Status::InvalidArgument(
        "trailing bytes in counting-sink snapshot");
  }
  if (count < 0) {
    return Status::InvalidArgument("counting-sink snapshot count negative");
  }
  OperatorSnapshot snap;
  snap.element_count = count;
  snap.state = count;
  return snap;
}

void CollectingSink::Chunks::Append(Tuple tuple) {
  if (tail.empty()) tail.reserve(kChunkSize);
  tail.push_back(std::move(tuple));
  if (tail.size() < kChunkSize) return;
  // Allocated non-const so TakeResults may move out of a chunk it owns
  // alone.
  sealed.push_back(std::make_shared<std::vector<Tuple>>(std::move(tail)));
  tail.clear();  // normalize the moved-from state
}

std::vector<Tuple> CollectingSink::Chunks::Flatten() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (const auto& chunk : sealed) {
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

CollectingSink::CollectingSink(std::string name) : Sink(std::move(name)) {}

OperatorSnapshot CollectingSink::SnapshotState() const {
  std::lock_guard<std::mutex> lock(results_mutex_);
  OperatorSnapshot snap;
  snap.state = results_;
  snap.element_count = static_cast<int64_t>(results_.size());
  return snap;
}

void CollectingSink::RestoreState(const OperatorSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(results_mutex_);
  results_ = std::any_cast<const Chunks&>(snapshot.state);
}

Status CollectingSink::EncodeState(const OperatorSnapshot& snapshot,
                                   std::string* out) const {
  const Chunks* results = nullptr;
  if (snapshot.state.has_value()) {
    results = std::any_cast<Chunks>(&snapshot.state);
    if (results == nullptr) {
      return Status::InvalidArgument(
          "snapshot is not a collecting-sink snapshot");
    }
  }
  BinaryWriter w(out);
  if (results == nullptr) {
    w.U64(0);
    return Status::Ok();
  }
  // Flat, as before chunking: the count, then every tuple in order.
  w.U64(results->size());
  for (const auto& chunk : results->sealed) {
    for (const Tuple& tuple : *chunk) w.Tuple(tuple);
  }
  for (const Tuple& tuple : results->tail) w.Tuple(tuple);
  return Status::Ok();
}

Result<OperatorSnapshot> CollectingSink::DecodeState(
    std::string_view bytes) const {
  BinaryReader r(bytes);
  uint64_t count = 0;
  Status st = r.U64(&count);
  if (!st.ok()) return st;
  // Every stored tuple costs at least its fixed header, so a count
  // beyond the remaining bytes is corrupt — reject it before it drives
  // a long decode loop.
  if (count > r.remaining()) {
    return Status::InvalidArgument(
        "collecting-sink count " + std::to_string(count) +
        " exceeds the " + std::to_string(r.remaining()) +
        " bytes remaining");
  }
  Chunks results;
  for (uint64_t i = 0; i < count; ++i) {
    Tuple tuple = Tuple::OfInt(0, 0);
    st = r.Tuple(&tuple);
    if (!st.ok()) return st;
    results.Append(std::move(tuple));
  }
  if (!r.done()) {
    return Status::InvalidArgument(
        "trailing bytes in collecting-sink snapshot");
  }
  OperatorSnapshot snap;
  snap.element_count = static_cast<int64_t>(results.size());
  snap.state = std::move(results);
  return snap;
}

std::vector<Tuple> CollectingSink::TakeResults() {
  std::lock_guard<std::mutex> lock(results_mutex_);
  std::vector<Tuple> out;
  out.reserve(results_.size());
  for (const auto& chunk : results_.sealed) {
    if (chunk.use_count() == 1) {
      // No snapshot shares this chunk: move its payloads out.
      auto& tuples = const_cast<std::vector<Tuple>&>(*chunk);
      out.insert(out.end(), std::make_move_iterator(tuples.begin()),
                 std::make_move_iterator(tuples.end()));
    } else {
      out.insert(out.end(), chunk->begin(), chunk->end());
    }
  }
  out.insert(out.end(), std::make_move_iterator(results_.tail.begin()),
             std::make_move_iterator(results_.tail.end()));
  results_ = Chunks();
  return out;
}

std::vector<Tuple> CollectingSink::Results() const {
  std::lock_guard<std::mutex> lock(results_mutex_);
  return results_.Flatten();
}

size_t CollectingSink::size() const {
  std::lock_guard<std::mutex> lock(results_mutex_);
  return results_.size();
}

void CollectingSink::Reset() {
  Sink::Reset();
  std::lock_guard<std::mutex> lock(results_mutex_);
  results_ = Chunks();
}

void CollectingSink::Consume(const Tuple& tuple, int port) {
  (void)port;
  std::lock_guard<std::mutex> lock(results_mutex_);
  results_.Append(tuple);
}

void CollectingSink::ConsumeBatch(TupleBatch&& batch, int port) {
  (void)port;
  std::lock_guard<std::mutex> lock(results_mutex_);
  for (Tuple& tuple : batch) results_.Append(std::move(tuple));
}

CallbackSink::CallbackSink(std::string name,
                           std::function<void(const Tuple&, int)> callback)
    : Sink(std::move(name)), callback_(std::move(callback)) {
  CHECK(callback_ != nullptr);
}

void CallbackSink::Consume(const Tuple& tuple, int port) {
  callback_(tuple, port);
}

}  // namespace flexstream
