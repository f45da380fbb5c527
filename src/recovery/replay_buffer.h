// Per-source bounded replay buffer.
//
// Records every batch a checkpoint-armed source flushes (tagged with the
// epoch it belongs to and whether it closed that epoch) so that after a
// failure the engine can rewind to the last committed epoch and re-emit
// exactly the uncommitted suffix, barriers included. Entries up to and
// including epoch E are dropped when E commits — steady state memory is
// bounded by the input between two commits. The buffer also has a hard
// element cap: overflowing it marks the buffer truncated, which
// disqualifies recovery (the recovery manager falls back to the abort
// path) rather than silently replaying an incomplete stream.
//
// Storage is batch-granular: an entry is one flushed batch scattered into
// a ColumnarBatch (which reproduces the exact tuples, timestamps and
// seqs), and committed entries' batches are kept for reuse, so recording
// does no per-tuple heap allocation in steady state. Per-tuple flushes of
// one epoch share an entry. Counts (depth, cap, cursors) stay per element.
//
// Thread-safety: OnRows/OnColumns/OnClose run in the source's driving
// thread, TrimThrough in whichever thread commits an epoch, Replay in the
// recovery thread — all serialized on one mutex.

#ifndef FLEXSTREAM_RECOVERY_REPLAY_BUFFER_H_
#define FLEXSTREAM_RECOVERY_REPLAY_BUFFER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "operators/source.h"
#include "tuple/columnar_batch.h"
#include "tuple/tuple.h"
#include "util/status.h"

namespace flexstream {

class ReplayBuffer : public Source::FlushObserver {
 public:
  ReplayBuffer(Source* source, size_t max_elements);

  // Source::FlushObserver (driving thread, gate held):
  void OnRows(const Tuple* rows, size_t n, Source::FlushForm form,
              uint64_t epoch, bool closes_epoch) override;
  void OnColumns(const ColumnarBatch& batch, uint64_t epoch,
                 bool closes_epoch) override;
  void OnClose(AppTime timestamp) override;

  /// Drops every entry belonging to epoch <= `epoch` (epoch commit).
  void TrimThrough(uint64_t epoch);

  /// Re-emits every retained batch with its barrier (and the recorded
  /// Close, if any) through the source, from the calling thread. Caller
  /// must hold the recovery gate exclusively, with the graph restored to
  /// the committed epoch. The entries stay, for a second failure.
  void Replay();

  /// True once the element cap was exceeded: the retained suffix is
  /// incomplete and must not be replayed.
  bool truncated() const;

  /// Ok while the buffer is intact; after an overflow, FailedPrecondition
  /// naming the source and the first epoch whose elements were dropped —
  /// the diagnosis the engine logs when it abandons live recovery.
  Status truncation_status() const;

  /// Number of data elements the source recorded through epoch `epoch`
  /// (i.e. before emitting that epoch's barrier) — the durable replay
  /// cursor persisted per committed epoch. Counts every recorded element,
  /// including elements later trimmed or dropped by truncation, so it
  /// stays exact for the lifetime of the run. Call with the epoch just
  /// committed, before or after that epoch's TrimThrough.
  uint64_t RecordedThrough(uint64_t epoch) const;

  /// True if the source's Close was recorded; fills `*timestamp` with the
  /// recorded close timestamp.
  bool recorded_close(AppTime* timestamp) const;

  /// Seeds the recorded-element count with the committed stream prefix the
  /// rebuilt source swallows via resume-skip after a cold restart. Skipped
  /// pushes are never flushed, so without this base RecordedThrough would
  /// count from the restore point and cursors persisted by the new
  /// incarnation would no longer be stream-absolute — a *second* cold
  /// restart would then under-skip and duplicate input. Call once, before
  /// the source is re-driven.
  void SetRecordedBase(uint64_t elements);

  Source* source() const { return source_; }

  /// Retained data elements.
  size_t depth() const;
  size_t peak_depth() const;
  int64_t replayed_elements() const;

 private:
  struct Entry {
    ColumnarBatchPtr batch;
    uint64_t epoch = 0;
    Source::FlushForm form = Source::FlushForm::kRows;
    bool closes_epoch = false;
  };

  /// Counts `n` elements of `epoch` and applies the cap; false when they
  /// are not to be stored (the buffer is, or just became, truncated).
  bool AdmitLocked(size_t n, uint64_t epoch);
  /// A recycled batch (or a fresh one) bound to `schema`.
  ColumnarBatchPtr TakeBatchLocked(SchemaPtr schema);
  /// Appends `row` to the tail entry when that is an open batch of `form`
  /// and `epoch` with a matching schema, else starts a new entry.
  void AppendRowLocked(const Tuple& row, Source::FlushForm form,
                       uint64_t epoch);

  Source* const source_;
  const size_t max_elements_;

  mutable std::mutex mutex_;
  std::deque<Entry> entries_;
  // The tail entry still takes rows (it is the flush being recorded, or a
  // per-tuple entry whose epoch is still open).
  bool tail_open_ = false;
  std::vector<ColumnarBatchPtr> spare_;  // trimmed batches, for reuse
  SchemaPtr row_schema_;  // schema of the last scattered row
  size_t depth_ = 0;
  bool closed_ = false;
  AppTime close_timestamp_ = 0;
  bool truncated_ = false;
  uint64_t first_unreplayable_epoch_ = 0;
  uint64_t total_recorded_ = 0;
  // Elements dropped after truncation, per epoch (empty while intact) —
  // keeps RecordedThrough exact after an overflow.
  std::map<uint64_t, uint64_t> dropped_per_epoch_;
  size_t peak_depth_ = 0;
  int64_t replayed_elements_ = 0;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_RECOVERY_REPLAY_BUFFER_H_
