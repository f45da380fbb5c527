#include "recovery/replay_buffer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "tuple/batch_pool.h"
#include "tuple/schema.h"
#include "util/logging.h"

namespace flexstream {
namespace {

// Trimmed batches kept for reuse; more go back to the shared pool. About
// two epochs of 64-row batches at the default epoch interval.
constexpr size_t kSpareCap = 64;

}  // namespace

ReplayBuffer::ReplayBuffer(Source* source, size_t max_elements)
    : source_(source), max_elements_(max_elements) {
  CHECK(source_ != nullptr);
}

bool ReplayBuffer::AdmitLocked(size_t n, uint64_t epoch) {
  // The recorded-element count keeps advancing after truncation: durable
  // replay cursors (RecordedThrough) must stay exact even when the live
  // replay suffix is disqualified.
  total_recorded_ += n;
  if (truncated_) {  // already disqualified — stop buffering
    dropped_per_epoch_[epoch] += n;
    return false;
  }
  if (max_elements_ != 0 && depth_ + n > max_elements_) {
    truncated_ = true;
    first_unreplayable_epoch_ = epoch;
    dropped_per_epoch_[epoch] += n;
    LOG(WARNING) << "replay buffer for source '" << source_->name()
                 << "' overflowed at " << depth_
                 << " elements; recovery disabled for this run";
    return false;
  }
  depth_ += n;
  peak_depth_ = std::max(peak_depth_, depth_);
  return true;
}

ColumnarBatchPtr ReplayBuffer::TakeBatchLocked(SchemaPtr schema) {
  if (spare_.empty()) return columnar::AcquireBatch(std::move(schema));
  ColumnarBatchPtr batch = std::move(spare_.back());
  spare_.pop_back();
  batch->ResetSchema(std::move(schema));
  return batch;
}

void ReplayBuffer::AppendRowLocked(const Tuple& row, Source::FlushForm form,
                                   uint64_t epoch) {
  if (tail_open_) {
    Entry& tail = entries_.back();
    if (tail.form == form && tail.epoch == epoch &&
        tail.batch->AppendTuple(row)) {
      return;
    }
  }
  // A new entry, or a schema change within a flush: a mixed-type row
  // batch is recorded as several entries.
  if (row_schema_ == nullptr || !row_schema_->Matches(row)) {
    row_schema_ = MakeSchema(Schema::InferFrom(row).types());
  }
  Entry entry;
  entry.batch = TakeBatchLocked(row_schema_);
  entry.epoch = epoch;
  entry.form = form;
  const bool ok = entry.batch->AppendTuple(row);
  DCHECK(ok);
  entries_.push_back(std::move(entry));
  tail_open_ = true;
}

void ReplayBuffer::OnRows(const Tuple* rows, size_t n, Source::FlushForm form,
                          uint64_t epoch, bool closes_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!AdmitLocked(n, epoch)) return;
  // A row batch is an entry of its own; per-tuple flushes of one epoch
  // share the open tail.
  if (form == Source::FlushForm::kRows) tail_open_ = false;
  for (size_t i = 0; i < n; ++i) AppendRowLocked(rows[i], form, epoch);
  if (closes_epoch) entries_.back().closes_epoch = true;
  tail_open_ = form == Source::FlushForm::kTuple && !closes_epoch;
}

void ReplayBuffer::OnColumns(const ColumnarBatch& batch, uint64_t epoch,
                             bool closes_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  tail_open_ = false;
  if (!AdmitLocked(batch.size(), epoch)) return;
  Entry entry;
  entry.batch = TakeBatchLocked(batch.schema_ptr());
  entry.batch->CopyFrom(batch);
  entry.epoch = epoch;
  entry.form = Source::FlushForm::kColumnar;
  entry.closes_epoch = closes_epoch;
  entries_.push_back(std::move(entry));
}

void ReplayBuffer::OnClose(AppTime timestamp) {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  close_timestamp_ = timestamp;
}

void ReplayBuffer::TrimThrough(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (!entries_.empty() && entries_.front().epoch <= epoch) {
    ColumnarBatchPtr batch = std::move(entries_.front().batch);
    entries_.pop_front();
    depth_ -= batch->size();
    if (spare_.size() < kSpareCap) {
      spare_.push_back(std::move(batch));
    } else {
      columnar::ReleaseBatch(std::move(batch));
    }
  }
  if (entries_.empty()) tail_open_ = false;
}

void ReplayBuffer::Replay() {
  // Copy under the lock, emit outside it: an epoch committed by the
  // in-flight replay itself may trim the buffer concurrently.
  std::vector<Entry> to_replay;
  bool replay_close = false;
  AppTime close_ts = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DCHECK(!truncated_);
    to_replay.reserve(entries_.size());
    for (const Entry& e : entries_) {
      Entry copy;
      copy.batch = columnar::AcquireBatch(e.batch->schema_ptr());
      copy.batch->CopyFrom(*e.batch);
      copy.epoch = e.epoch;
      copy.form = e.form;
      copy.closes_epoch = e.closes_epoch;
      to_replay.push_back(std::move(copy));
    }
    replay_close = closed_;
    close_ts = close_timestamp_;
    replayed_elements_ += static_cast<int64_t>(depth_);
  }
  for (Entry& e : to_replay) {
    source_->ReplayFlush(e.form, std::move(e.batch), e.epoch,
                         e.closes_epoch);
  }
  if (replay_close) source_->ReplayClose(close_ts);
}

bool ReplayBuffer::truncated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return truncated_;
}

Status ReplayBuffer::truncation_status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!truncated_) return Status::Ok();
  return Status::FailedPrecondition(
      "replay buffer for source '" + source_->name() +
      "' truncated: epoch " + std::to_string(first_unreplayable_epoch_) +
      " is the first epoch with dropped elements (cap " +
      std::to_string(max_elements_) + ")");
}

uint64_t ReplayBuffer::RecordedThrough(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t later = 0;
  for (auto it = entries_.rbegin();
       it != entries_.rend() && it->epoch > epoch; ++it) {
    later += it->batch->size();
  }
  // Elements dropped by truncation are in total_recorded_ but not in
  // entries_; subtract the ones belonging to later epochs.
  for (auto it = dropped_per_epoch_.upper_bound(epoch);
       it != dropped_per_epoch_.end(); ++it) {
    later += it->second;
  }
  return total_recorded_ - later;
}

void ReplayBuffer::SetRecordedBase(uint64_t elements) {
  std::lock_guard<std::mutex> lock(mutex_);
  DCHECK(entries_.empty());
  total_recorded_ = elements;
}

bool ReplayBuffer::recorded_close(AppTime* timestamp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) *timestamp = close_timestamp_;
  return closed_;
}

size_t ReplayBuffer::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

size_t ReplayBuffer::peak_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_depth_;
}

int64_t ReplayBuffer::replayed_elements() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replayed_elements_;
}

}  // namespace flexstream
