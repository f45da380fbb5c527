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

void Sink::OnAllInputsClosed(AppTime timestamp) {
  (void)timestamp;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
}

CountingSink::CountingSink(std::string name) : Sink(std::move(name)) {}

void CountingSink::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
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

void CountingSink::Process(const Tuple& tuple, int port) {
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

void CountingSink::ProcessBatch(TupleBatch&& batch, int port) {
  if (timeline_enabled_) {
    // The timeline wants one (time, cumulative count) sample per arrival:
    // keep the per-tuple path.
    Operator::ProcessBatch(std::move(batch), port);
    return;
  }
  count_.fetch_add(static_cast<int64_t>(batch.size()),
                   std::memory_order_relaxed);
}

Status CountingSink::Decode(BinaryReader* r, State* state) const {
  Status s = Get(r, state);
  if (s.ok() && *state < 0) {
    return Status::InvalidArgument("counting-sink snapshot count negative");
  }
  return s;
}

void ResultChunks::Append(Tuple tuple) {
  if (tail.empty()) tail.reserve(kChunkSize);
  tail.push_back(std::move(tuple));
  if (tail.size() < kChunkSize) return;
  // Allocated non-const so TakeResults may move out of a chunk it owns
  // alone.
  sealed.push_back(std::make_shared<std::vector<Tuple>>(std::move(tail)));
  tail.clear();  // normalize the moved-from state
}

std::vector<Tuple> ResultChunks::Flatten() const {
  std::vector<Tuple> out;
  out.reserve(size());
  for (const auto& chunk : sealed) {
    out.insert(out.end(), chunk->begin(), chunk->end());
  }
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

void Put(BinaryWriter* w, const ResultChunks& chunks) {
  w->U64(chunks.size());
  for (const auto& chunk : chunks.sealed) {
    for (const Tuple& tuple : *chunk) w->Tuple(tuple);
  }
  for (const Tuple& tuple : chunks.tail) w->Tuple(tuple);
}

Status Get(BinaryReader* r, ResultChunks* chunks) {
  uint64_t count = 0;
  Status s = GetCount(r, &count);
  *chunks = ResultChunks();
  for (uint64_t i = 0; s.ok() && i < count; ++i) {
    Tuple tuple;
    s = Get(r, &tuple);
    if (s.ok()) chunks->Append(std::move(tuple));
  }
  return s;
}

CollectingSink::CollectingSink(std::string name) : Sink(std::move(name)) {}

CollectingSink::State CollectingSink::CaptureState() const {
  std::lock_guard<std::mutex> lock(results_mutex_);
  return results_;
}

void CollectingSink::InstallState(const State& state) {
  std::lock_guard<std::mutex> lock(results_mutex_);
  results_ = state;
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

void CollectingSink::Process(const Tuple& tuple, int port) {
  (void)port;
  std::lock_guard<std::mutex> lock(results_mutex_);
  results_.Append(tuple);
}

void CollectingSink::ProcessBatch(TupleBatch&& batch, int port) {
  (void)port;
  std::lock_guard<std::mutex> lock(results_mutex_);
  for (Tuple& tuple : batch) results_.Append(std::move(tuple));
}

CallbackSink::CallbackSink(std::string name,
                           std::function<void(const Tuple&, int)> callback)
    : Sink(std::move(name)), callback_(std::move(callback)) {
  CHECK(callback_ != nullptr);
}

void CallbackSink::Process(const Tuple& tuple, int port) {
  callback_(tuple, port);
}

}  // namespace flexstream
