// Data sources.
//
// Sources "only deliver data" (Section 2.1). They are driven from outside
// the scheduler — either by an autonomous thread (workload/rate_source.h),
// or synchronously by tests/benchmarks pushing elements. With DI and no
// queue after the source, the source's driving thread executes the whole
// downstream subgraph (the configuration Section 6.3 shows to be unsafe
// for expensive operators).

#ifndef FLEXSTREAM_OPERATORS_SOURCE_H_
#define FLEXSTREAM_OPERATORS_SOURCE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <vector>

#include "operators/operator.h"
#include "tuple/columnar_batch.h"
#include "util/clock.h"

namespace flexstream {

/// Longest a partial batch waits for more elements: the first Push after
/// the pending batch has waited this long emits it (DESIGN.md §11).
inline constexpr Duration kBatchLinger = std::chrono::microseconds(100);

/// Why a source emitted its pending batch (Source::flushes).
enum class FlushReason {
  kFull,         // reached the emit batch size
  kLinger,       // waited kBatchLinger
  kBarrier,      // ahead of an epoch barrier
  kClose,        // ahead of the end-of-stream punctuation
  kSchemaDrift,  // columnar: an element stopped matching the batch schema
  kOther,        // batch size / representation change, or ahead of a
                 // PushColumnar batch
};
inline constexpr int kFlushReasonCount = 6;
const char* FlushReasonToString(FlushReason reason);

/// Base class for sources: exposes Push/Close so external drivers can
/// inject elements.
///
/// Checkpointing (src/recovery/): ArmEpochs makes the source inject an
/// epoch-barrier punctuation after every `interval` pushed elements and
/// report each push to a PushObserver (the recovery manager's replay
/// buffer) *before* emitting it — so an element lost to a failure mid-emit
/// is still replayable. While armed, Push/Close also take a shared lock on
/// the recovery gate; recovery takes it exclusively to quiesce all driving
/// threads before restoring state.
class Source : public Operator {
 public:
  /// Observes the armed source's input stream for replay (implemented by
  /// recovery::ReplayBuffer). Called in the driving thread, before the
  /// element is emitted. `epoch` is the epoch the element belongs to
  /// (elements after barrier k-1 and up to barrier k belong to epoch k).
  class PushObserver {
   public:
    virtual ~PushObserver() = default;
    virtual void OnPush(const Tuple& tuple, uint64_t epoch) = 0;
    virtual void OnClose(AppTime timestamp) = 0;
  };

  explicit Source(std::string name);

  /// Delivers one data element downstream (in the calling thread). With an
  /// emit batch size > 1, the element is accumulated instead and delivered
  /// as part of the next TupleBatch (DESIGN.md §11): once the batch is
  /// full, or at the first Push after it has waited kBatchLinger.
  void Push(const Tuple& tuple);

  /// Move-aware Push: the element's payload is moved downstream (into the
  /// accumulating batch, or — single subscriber — into the first Receive).
  void Push(Tuple&& tuple);

  /// Emits the end-of-stream punctuation (flushing any pending batch
  /// first). Idempotent.
  void Close(AppTime timestamp = 0);

  /// Batch accumulation (EngineOptions::emit_batch_size): sizes > 1 make
  /// Push collect elements into a TupleBatch and emit it downstream once
  /// full, or once it has lingered kBatchLinger. Pending elements are
  /// flushed before every epoch barrier, before Close's EOS, and by this
  /// call itself — batches never straddle a punctuation. 0 is treated as 1
  /// (per-tuple delivery, the default).
  /// Engine-configured; call from the driving thread or while quiescent.
  void SetEmitBatchSize(size_t batch_size);
  size_t emit_batch_size() const { return emit_batch_size_; }

  /// Thread-safe batch-size change request (the SLO controller's rung-2
  /// actuation): the new size is applied by the driving thread itself at
  /// its next Push (pending elements are flushed first, so batches never
  /// reorder across the change). 0 is treated as 1.
  void RequestEmitBatchSize(size_t batch_size) {
    requested_batch_size_.store(batch_size == 0 ? 1 : batch_size,
                                std::memory_order_relaxed);
  }

  /// Columnar accumulation (EngineOptions::columnar, DESIGN.md §17): with
  /// an emit batch size > 1, Push scatters elements into a pooled
  /// ColumnarBatch instead of a row-wise TupleBatch and emits it via
  /// EmitColumnar once full. The batch's schema is the declared output
  /// schema when it matches the data, else inferred from the first
  /// element; an element that stops matching flushes the batch and starts
  /// a new one under the new schema, so mixed-type streams degrade to
  /// smaller batches, never to wrong answers. Punctuation flushing rules
  /// are identical to the row path. Engine-configured; call from the
  /// driving thread or while quiescent.
  void SetColumnarEmit(bool enabled);
  bool columnar_emit() const { return columnar_emit_; }

  /// Substitutes the time source of the linger bound (nullptr, the
  /// default, reads the steady clock). The clock is read only from the
  /// pushing thread: when a batch starts and when it fills, plus on every
  /// push while the previous batch filled slower than kBatchLinger.
  /// Call while quiescent.
  void SetLingerClock(Clock* clock) { linger_clock_ = clock; }

  /// Batches emitted for `reason` so far (any thread; cumulative across
  /// Reset, so a recovered run counts its replayed flushes too).
  int64_t flushes(FlushReason reason) const {
    return flush_counts_[static_cast<size_t>(reason)].load(
        std::memory_order_relaxed);
  }

  /// Declares the attribute types this source will push — the graph-build-
  /// time anchor of schema propagation (StreamEngine::Configure walks it
  /// through the topology). Purely declarative: batches still verify
  /// element-by-element, so a wrong declaration costs batch granularity,
  /// never correctness.
  void DeclareOutputSchema(SchemaPtr schema);
  SchemaPtr InferOutputSchema(
      const std::vector<SchemaPtr>& inputs) const override;

  /// Columnar quickstart: delivers a pre-built typed batch downstream
  /// whole, skipping per-tuple Tuple construction entirely (benches and
  /// columnar-native feeds). Any accumulated elements are flushed first so
  /// order is preserved. When the epoch/replay machinery is armed the
  /// batch is unbundled onto the per-element Push path (the observer must
  /// see every element), so recovery semantics are untouched.
  void PushColumnar(ColumnarBatchPtr batch);

  bool closed_by_driver() const { return closed_by_driver_; }

  /// Arms epoch injection: a barrier after every `interval` pushes,
  /// deliveries reported to `observer`, Push/Close gated by `gate`.
  /// Engine-configured; call while quiescent. Survives Reset (the counters
  /// rewind via RewindTo instead).
  void ArmEpochs(uint64_t interval, PushObserver* observer,
                 std::shared_mutex* gate);
  void DisarmEpochs();
  bool epochs_armed() const { return epoch_interval_ != 0; }

  /// The epoch the next pushed element will belong to (1-based).
  uint64_t current_epoch() const { return next_epoch_; }

  /// Recovery rewind: resumes the epoch counters at the boundary of
  /// committed epoch `epoch`, reopening the source if the driver's Close
  /// is being replayed too. Call with the gate held exclusively, after
  /// Reset().
  void RewindTo(uint64_t epoch);

  /// Cold-restart resume (DESIGN.md §16): silently discards the next `n`
  /// data pushes on the epoch path — no emit, no observer record, no epoch
  /// counting. After a cold restart the driver re-feeds the source's full
  /// deterministic input; the skip swallows the prefix already reflected
  /// in the restored epoch's state, so the live run resumes exactly at the
  /// durable replay cursor and barriers regenerate at identical positions.
  /// Call with the graph quiescent, after RewindTo. Cleared by
  /// ArmEpochs/DisarmEpochs but preserved across RewindTo/Reset (a live
  /// recovery during the skip phase must keep skipping).
  void SetResumeSkip(uint64_t n) { resume_skip_ = n; }
  uint64_t resume_skip() const { return resume_skip_; }

  /// Replay bracket, called by the replaying thread: between BeginReplay
  /// and EndReplay, Push/Close *from that thread* bypass both the gate (it
  /// holds the gate exclusively — retaking it would self-deadlock) and the
  /// observer (replayed elements are already buffered). A Push/Close from
  /// any other thread — a live driver racing the recovery — still takes
  /// the gate, so it waits until the sources resume.
  void BeginReplay();
  void EndReplay();

  void Reset() override;

 protected:
  void Process(const Tuple& tuple, int port) override;

 private:
  void PushEpochs(const Tuple& tuple);
  /// True while this thread replays into this source (BeginReplay).
  bool replaying() const;
  /// Adds one element to the pending batch (row-wise or columnar).
  template <typename T>
  void Accumulate(T&& tuple);
  /// Linger bookkeeping after an append left `pending` elements: stamps a
  /// new batch's start and emits the batch when full or lingered.
  void OnAppended(size_t pending);
  TimePoint LingerNow() {
    return linger_clock_ != nullptr ? linger_clock_->Now() : Now();
  }
  /// Emits the accumulated batch — row-wise or columnar — downstream.
  void FlushPendingBatch(FlushReason reason);
  /// Scatters one element into the pending columnar batch (creating it
  /// from the pool on first use), flushing first on schema change.
  void AppendPendingColumnar(const Tuple& tuple);
  void FlushPendingColumnar(FlushReason reason);
  void CountFlush(FlushReason reason) {
    std::atomic<int64_t>& count = flush_counts_[static_cast<size_t>(reason)];
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  }
  /// Driving-thread check for a pending RequestEmitBatchSize; applies it
  /// (flush + switch) when one differs from the current size. One relaxed
  /// load on the push path.
  void ApplyRequestedBatchSize() {
    const size_t requested =
        requested_batch_size_.load(std::memory_order_relaxed);
    if (requested != emit_batch_size_) SetEmitBatchSize(requested);
  }

  bool closed_by_driver_ = false;

  // Batch accumulation (driving-thread only, like the epoch counters).
  size_t emit_batch_size_ = 1;
  // Cross-thread change request, applied by the driving thread.
  std::atomic<size_t> requested_batch_size_{1};
  TupleBatch pending_;

  // Columnar accumulation (driving-thread only).
  bool columnar_emit_ = false;
  ColumnarBatchPtr pending_col_;
  SchemaPtr declared_schema_;  // user declaration (DeclareOutputSchema)
  SchemaPtr batch_schema_;     // working schema of the current batches

  // Linger bound (driving-thread only). The clock is read when a batch
  // starts and when it fills; only while the last full batch took longer
  // than kBatchLinger (linger_watch_) is it also read on every push.
  Clock* linger_clock_ = nullptr;
  TimePoint batch_start_{};
  bool linger_watch_ = false;
  // Written by the pushing thread (or the replaying thread, under the
  // gate); read by stats reports on any thread.
  std::array<std::atomic<int64_t>, kFlushReasonCount> flush_counts_{};

  // Epoch/replay state. Touched by the (single) driving thread and, with
  // the gate held exclusively, by the recovery thread.
  uint64_t epoch_interval_ = 0;
  uint64_t next_epoch_ = 1;
  uint64_t pushed_in_epoch_ = 0;
  uint64_t resume_skip_ = 0;
  PushObserver* observer_ = nullptr;
  std::shared_mutex* gate_ = nullptr;
};

/// A source over a pre-materialized vector of tuples; PushAll() replays
/// them in order and closes. Used by tests and oracle computations.
class VectorSource : public Source {
 public:
  VectorSource(std::string name, std::vector<Tuple> tuples);

  /// Replays every tuple then EOS (timestamped with the last element's
  /// timestamp).
  void PushAll();

  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  std::vector<Tuple> tuples_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_OPERATORS_SOURCE_H_
