#include "operators/latency_sink.h"

#include <tuple>
#include <utility>

#include "tuple/batch_pool.h"

namespace flexstream {

LatencySink::LatencySink(std::string name, size_t offset_attr,
                         TimePoint epoch, std::optional<size_t> phase_attr)
    : Sink(std::move(name)),
      offset_attr_(offset_attr),
      epoch_(epoch),
      phase_attr_(phase_attr) {}

bool LatencySink::AcceptsColumnar(const Schema& schema, int) const {
  const auto int64_at = [&](size_t attr) {
    return attr < schema.arity() && schema.type(attr) == Value::Type::kInt64;
  };
  return int64_at(offset_attr_) &&
         (!phase_attr_.has_value() || int64_at(*phase_attr_));
}

void LatencySink::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  (void)port;
  const size_t n = batch->size();
  const int64_t* offsets = batch->Ints(offset_attr_);
  const int64_t* phases =
      phase_attr_.has_value() ? batch->Ints(*phase_attr_) : nullptr;
  const int64_t now_offset = ToMicros(Now() - epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < n; ++i) {
    const double latency_micros = static_cast<double>(now_offset - offsets[i]);
    histogram_.Add(latency_micros);
    if (phases != nullptr) phase_histograms_[phases[i]].Add(latency_micros);
  }
  columnar::ReleaseBatch(std::move(batch));
}

Histogram LatencySink::TakeHistogram() {
  std::lock_guard<std::mutex> lock(mutex_);
  Histogram h = histogram_;
  histogram_.Reset();
  return h;
}

Histogram LatencySink::SnapshotHistogram() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_;
}

std::map<int64_t, Histogram> LatencySink::TakePhaseHistograms() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int64_t, Histogram> out;
  out.swap(phase_histograms_);
  return out;
}

int64_t LatencySink::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_.count();
}

LatencySink::State LatencySink::CaptureState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {histogram_, phase_histograms_};
}

void LatencySink::InstallState(const State& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::tie(histogram_, phase_histograms_) = state;
}

void LatencySink::Reset() {
  Sink::Reset();
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.Reset();
  phase_histograms_.clear();
}

void LatencySink::Process(const Tuple& tuple, int port) {
  (void)port;
  const int64_t now_offset = ToMicros(Now() - epoch_);
  const double latency_micros =
      static_cast<double>(now_offset - tuple.IntAt(offset_attr_));
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.Add(latency_micros);
  if (phase_attr_.has_value()) {
    phase_histograms_[tuple.IntAt(*phase_attr_)].Add(latency_micros);
  }
}

void LatencySink::ProcessBatch(TupleBatch&& batch, int port) {
  (void)port;
  const int64_t now_offset = ToMicros(Now() - epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Tuple& tuple : batch) {
    const double latency_micros =
        static_cast<double>(now_offset - tuple.IntAt(offset_attr_));
    histogram_.Add(latency_micros);
    if (phase_attr_.has_value()) {
      phase_histograms_[tuple.IntAt(*phase_attr_)].Add(latency_micros);
    }
  }
}

}  // namespace flexstream
