#include "operators/source.h"

#include "tuple/batch_pool.h"
#include "util/logging.h"

namespace flexstream {

namespace {

// The source the calling thread is replaying into (Source::BeginReplay).
// Thread-local, so only the replaying thread bypasses the recovery gate.
thread_local const Source* replaying_source = nullptr;

}  // namespace

const char* FlushReasonToString(FlushReason reason) {
  switch (reason) {
    case FlushReason::kFull:
      return "full";
    case FlushReason::kLinger:
      return "linger";
    case FlushReason::kBarrier:
      return "barrier";
    case FlushReason::kClose:
      return "close";
    case FlushReason::kSchemaDrift:
      return "schema_drift";
    case FlushReason::kOther:
      return "other";
  }
  return "?";
}

Source::Source(std::string name)
    : Operator(Kind::kSource, std::move(name), /*input_arity=*/0) {}

void Source::Push(const Tuple& tuple) {
  if (epoch_interval_ != 0) {
    PushEpochs(tuple);
    return;
  }
  ApplyRequestedBatchSize();
  DCHECK(tuple.is_data());
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (StatsCollectionEnabled()) {
    stats().RecordArrival(Now());
    stats().RecordProcessed(0.0);
  }
  if (emit_batch_size_ > 1) {
    Accumulate(tuple);
    return;
  }
  Emit(tuple);
}

void Source::Push(Tuple&& tuple) {
  if (epoch_interval_ != 0) {
    // The epoch path copies into the replay buffer anyway; no move win.
    PushEpochs(tuple);
    return;
  }
  ApplyRequestedBatchSize();
  DCHECK(tuple.is_data());
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (StatsCollectionEnabled()) {
    stats().RecordArrival(Now());
    stats().RecordProcessed(0.0);
  }
  if (emit_batch_size_ > 1) {
    Accumulate(std::move(tuple));
    return;
  }
  EmitMove(std::move(tuple));
}

template <typename T>
void Source::Accumulate(T&& tuple) {
  if (columnar_emit_) {
    // Scattering copies the attribute payloads into the columns; a
    // move-in tuple is simply dropped afterwards.
    AppendPendingColumnar(tuple);
    return;
  }
  pending_.PushBack(std::forward<T>(tuple));
  OnAppended(pending_.size());
}

void Source::OnAppended(size_t pending) {
  if (pending == 1) {
    batch_start_ = LingerNow();
  } else if (pending >= emit_batch_size_) {
    // A batch that filled within the bound lets the next one skip the
    // per-push clock reads: at this rate it fills before it could linger.
    linger_watch_ = LingerNow() - batch_start_ >= kBatchLinger;
    FlushPendingBatch(FlushReason::kFull);
  } else if (linger_watch_ && LingerNow() - batch_start_ >= kBatchLinger) {
    FlushPendingBatch(FlushReason::kLinger);
  }
}

void Source::SetEmitBatchSize(size_t batch_size) {
  FlushPendingBatch(FlushReason::kOther);
  emit_batch_size_ = batch_size == 0 ? 1 : batch_size;
  // Keep the cross-thread request in sync so a stale earlier request
  // cannot resurrect an old size at the next Push.
  requested_batch_size_.store(emit_batch_size_, std::memory_order_relaxed);
  // Growth-policy satellite: reserve the accumulation buffer to the hint
  // up front instead of letting PushBack double its way there.
  if (emit_batch_size_ > 1) pending_.reserve(emit_batch_size_);
}

void Source::FlushPendingBatch(FlushReason reason) {
  if (!pending_.empty()) {
    TupleBatch batch = std::move(pending_);
    pending_.clear();  // normalize the moved-from state
    // Steady state: re-reserve the hint so the next fill costs exactly one
    // allocation (the growth-policy satellite; see tests/batch_alloc_test).
    if (emit_batch_size_ > 1) pending_.reserve(emit_batch_size_);
    CountFlush(reason);
    EmitBatch(std::move(batch));
  }
  FlushPendingColumnar(reason);
}

void Source::FlushPendingColumnar(FlushReason reason) {
  if (pending_col_ == nullptr || pending_col_->empty()) return;
  CountFlush(reason);
  EmitColumnar(std::move(pending_col_));
}

void Source::AppendPendingColumnar(const Tuple& tuple) {
  if (pending_col_ == nullptr) {
    if (batch_schema_ == nullptr || !batch_schema_->Matches(tuple)) {
      batch_schema_ =
          (declared_schema_ != nullptr && declared_schema_->Matches(tuple))
              ? declared_schema_
              : MakeSchema(Schema::InferFrom(tuple).types());
    }
    pending_col_ = columnar::AcquireBatch(batch_schema_);
  }
  if (!pending_col_->AppendTuple(tuple)) {
    // Schema drift mid-stream: flush what accumulated and restart under
    // the element's own schema.
    FlushPendingColumnar(FlushReason::kSchemaDrift);
    batch_schema_ = MakeSchema(Schema::InferFrom(tuple).types());
    pending_col_ = columnar::AcquireBatch(batch_schema_);
    const bool ok = pending_col_->AppendTuple(tuple);
    DCHECK(ok);
  }
  OnAppended(pending_col_->size());
}

void Source::SetColumnarEmit(bool enabled) {
  FlushPendingBatch(FlushReason::kOther);
  columnar_emit_ = enabled;
}

void Source::DeclareOutputSchema(SchemaPtr schema) {
  declared_schema_ = std::move(schema);
  SetStaticOutputSchema(declared_schema_);
}

SchemaPtr Source::InferOutputSchema(const std::vector<SchemaPtr>&) const {
  return declared_schema_;
}

void Source::PushColumnar(ColumnarBatchPtr batch) {
  if (batch == nullptr || batch->empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  if (epoch_interval_ != 0) {
    // The epoch/replay machinery (observer records, barrier counting,
    // resume skip) is per-element: unbundle onto the exact Push path.
    TupleBatch rows = columnar::MaterializeAndRelease(std::move(batch));
    for (Tuple& tuple : rows) Push(std::move(tuple));
    return;
  }
  ApplyRequestedBatchSize();
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (StatsCollectionEnabled()) {
    stats().RecordArrivalBatch(Now(), static_cast<int64_t>(batch->size()));
    stats().RecordProcessedBatch(0.0, static_cast<int64_t>(batch->size()));
  }
  // Anything accumulated earlier goes first.
  FlushPendingBatch(FlushReason::kOther);
  EmitColumnar(std::move(batch));
}

bool Source::replaying() const { return replaying_source == this; }

void Source::BeginReplay() { replaying_source = this; }

void Source::EndReplay() { replaying_source = nullptr; }

void Source::PushEpochs(const Tuple& tuple) {
  // The gate stalls live pushes while recovery rewinds/replays; replayed
  // pushes come from the thread already holding it exclusively.
  const bool replaying = this->replaying();
  std::shared_lock<std::shared_mutex> gate_lock;
  if (gate_ != nullptr && !replaying) {
    gate_lock = std::shared_lock<std::shared_mutex>(*gate_);
  }
  // Under the gate: a resize applied mid-recovery would flush into the
  // graph being restored.
  ApplyRequestedBatchSize();
  DCHECK(tuple.is_data());
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (resume_skip_ > 0 && !replaying) {
    // Cold-restart prefix: already reflected in the restored state.
    --resume_skip_;
    return;
  }
  // Record before emitting: if a failure poisons the graph mid-emit, the
  // element is already in the replay buffer.
  if (observer_ != nullptr && !replaying) observer_->OnPush(tuple, next_epoch_);
  if (StatsCollectionEnabled()) {
    stats().RecordArrival(Now());
    stats().RecordProcessed(0.0);
  }
  if (emit_batch_size_ > 1) {
    Accumulate(tuple);
  } else {
    Emit(tuple);
  }
  if (++pushed_in_epoch_ >= epoch_interval_) {
    // Barriers regenerate deterministically on replay: the counters rewind
    // to the committed boundary, so replayed elements re-cross the same
    // epoch boundaries at the same positions. Any accumulating batch is
    // flushed first — a batch never straddles a barrier.
    FlushPendingBatch(FlushReason::kBarrier);
    EmitBarrier(Tuple::EpochBarrier(next_epoch_));
    ++next_epoch_;
    pushed_in_epoch_ = 0;
  }
}

void Source::Close(AppTime timestamp) {
  const bool replaying = this->replaying();
  std::shared_lock<std::shared_mutex> gate_lock;
  if (epoch_interval_ != 0 && gate_ != nullptr && !replaying) {
    gate_lock = std::shared_lock<std::shared_mutex>(*gate_);
  }
  if (closed_by_driver_) return;
  closed_by_driver_ = true;
  if (observer_ != nullptr && !replaying) observer_->OnClose(timestamp);
  FlushPendingBatch(FlushReason::kClose);
  EmitEos(timestamp);
}

void Source::ArmEpochs(uint64_t interval, PushObserver* observer,
                       std::shared_mutex* gate) {
  epoch_interval_ = interval;
  observer_ = observer;
  gate_ = gate;
  next_epoch_ = 1;
  pushed_in_epoch_ = 0;
  resume_skip_ = 0;
}

void Source::DisarmEpochs() {
  epoch_interval_ = 0;
  observer_ = nullptr;
  gate_ = nullptr;
  next_epoch_ = 1;
  pushed_in_epoch_ = 0;
  resume_skip_ = 0;
}

void Source::RewindTo(uint64_t epoch) {
  closed_by_driver_ = false;
  next_epoch_ = epoch + 1;
  pushed_in_epoch_ = 0;
}

void Source::Reset() {
  Operator::Reset();
  closed_by_driver_ = false;
  pending_.clear();
  columnar::ReleaseBatch(std::move(pending_col_));
  pending_col_.reset();
  linger_watch_ = false;
}

void Source::Process(const Tuple& tuple, int port) {
  (void)tuple;
  (void)port;
  LOG(FATAL) << "sources have no inputs: " << DebugString();
}

VectorSource::VectorSource(std::string name, std::vector<Tuple> tuples)
    : Source(std::move(name)), tuples_(std::move(tuples)) {}

void VectorSource::PushAll() {
  AppTime last_ts = 0;
  for (const Tuple& t : tuples_) {
    Push(t);
    last_ts = t.timestamp();
  }
  Close(last_ts);
}

}  // namespace flexstream
