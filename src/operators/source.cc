#include "operators/source.h"

#include <type_traits>
#include <utility>

#include "tuple/batch_pool.h"
#include "util/logging.h"

namespace flexstream {

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

void Source::Push(const Tuple& tuple) { PushOne(tuple); }

void Source::Push(Tuple&& tuple) { PushOne(std::move(tuple)); }

template <typename T>
void Source::PushOne(T&& tuple) {
  // Nothing before a flush takes the gate: a pending element has not
  // entered the graph, so accumulating is safe while recovery restores it.
  ApplyRequestedBatchSize();
  DCHECK(tuple.is_data());
  DCHECK(!closed_by_driver_) << DebugString() << " pushed after Close";
  if (resume_skip_ > 0) {
    // Cold-restart prefix: already reflected in the restored state.
    --resume_skip_;
    return;
  }
  // Barriers regenerate at the same stream positions in every run: the
  // epoch's last element flushes the batch together with the barrier, so
  // a batch never straddles a barrier.
  const bool closes_epoch =
      epoch_interval_ != 0 && ++pushed_in_epoch_ >= epoch_interval_;
  if (emit_batch_size_ == 1) {
    // Per-tuple delivery: every push is a flush of one element.
    std::shared_lock<std::shared_mutex> gate_lock = LockGate();
    FlushLocked(FlushReason::kFull, closes_epoch, &tuple);
  } else {
    size_t pending;
    if (columnar_emit_) {
      // Scattering copies the attribute payloads into the columns; a
      // move-in tuple is simply dropped afterwards.
      AppendPendingColumnar(tuple);
      pending = pending_col_->size();
    } else {
      pending_.PushBack(std::forward<T>(tuple));
      pending = pending_.size();
    }
    if (!closes_epoch) {
      OnAppended(pending);
      return;
    }
    FlushPendingBatch(FlushReason::kBarrier, /*closes_epoch=*/true);
  }
  if (closes_epoch) {
    ++next_epoch_;
    pushed_in_epoch_ = 0;
  }
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
  pending_.reserve(emit_batch_size_);
}

void Source::FlushPendingBatch(FlushReason reason, bool closes_epoch) {
  if (!closes_epoch && pending_.empty() &&
      (pending_col_ == nullptr || pending_col_->empty())) {
    return;
  }
  std::shared_lock<std::shared_mutex> gate_lock = LockGate();
  FlushLocked<Tuple>(reason, closes_epoch, nullptr);
}

template <typename One>
void Source::FlushLocked(FlushReason reason, bool closes_epoch, One* one) {
  const size_t n = one != nullptr           ? 1
                   : !pending_.empty()       ? pending_.size()
                   : pending_col_ != nullptr ? pending_col_->size()
                                             : 0;
  if (n > 0 && StatsCollectionEnabled()) {
    stats().RecordArrival(Now(), static_cast<int64_t>(n));
    stats().RecordProcessed(0.0, static_cast<int64_t>(n));
  }
  // Record before emitting: if a failure poisons the graph mid-emit, the
  // batch is already in the replay buffer.
  if (one != nullptr) {
    if (observer_ != nullptr) {
      observer_->OnRows(one, 1, FlushForm::kTuple, next_epoch_,
                        closes_epoch);
    }
    if constexpr (std::is_const_v<One>) {
      Emit(*one);
    } else {
      EmitMove(std::move(*one));
    }
  } else if (!pending_.empty()) {
    if (observer_ != nullptr) {
      observer_->OnRows(&pending_[0], n, FlushForm::kRows, next_epoch_,
                        closes_epoch);
    }
    TupleBatch batch = std::move(pending_);
    pending_.clear();  // normalize the moved-from state
    // Steady state: re-reserve the hint so the next fill costs exactly one
    // allocation (the growth-policy satellite; see tests/batch_alloc_test).
    pending_.reserve(emit_batch_size_);
    CountFlush(reason);
    EmitBatch(std::move(batch));
  } else if (n > 0) {
    if (observer_ != nullptr) {
      observer_->OnColumns(*pending_col_, next_epoch_, closes_epoch);
    }
    CountFlush(reason);
    EmitColumnar(std::move(pending_col_));
  }
  // An epoch ends on the push that fills it, so its flush is never empty.
  DCHECK(n > 0 || !closes_epoch);
  if (closes_epoch) EmitBarrier(Tuple::EpochBarrier(next_epoch_));
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
    FlushPendingBatch(FlushReason::kSchemaDrift);
    batch_schema_ = MakeSchema(Schema::InferFrom(tuple).types());
    pending_col_ = columnar::AcquireBatch(batch_schema_);
    const bool ok = pending_col_->AppendTuple(tuple);
    DCHECK(ok);
  }
}

void Source::SetColumnarEmit(bool enabled) {
  FlushPendingBatch(FlushReason::kOther);
  columnar_emit_ = enabled;
}

void Source::DeclareOutputSchema(SchemaPtr schema) {
  declared_schema_ = std::move(schema);
}

void Source::ReplayFlush(FlushForm form, ColumnarBatchPtr batch,
                         uint64_t epoch, bool closes_epoch) {
  switch (form) {
    case FlushForm::kTuple:
      for (size_t i = 0; i < batch->size(); ++i) {
        EmitMove(batch->MaterializeRow(i));
      }
      columnar::ReleaseBatch(std::move(batch));
      break;
    case FlushForm::kRows:
      EmitBatch(columnar::MaterializeAndRelease(std::move(batch)));
      break;
    case FlushForm::kColumnar:
      EmitColumnar(std::move(batch));
      break;
  }
  if (closes_epoch) EmitBarrier(Tuple::EpochBarrier(epoch));
}

void Source::ReplayClose(AppTime timestamp) { EmitEos(timestamp); }

void Source::Close(AppTime timestamp) {
  if (closed_by_driver_) return;
  closed_by_driver_ = true;
  std::shared_lock<std::shared_mutex> gate_lock = LockGate();
  FlushLocked<Tuple>(FlushReason::kClose, /*closes_epoch=*/false, nullptr);
  if (observer_ != nullptr) observer_->OnClose(timestamp);
  EmitEos(timestamp);
}

void Source::ArmEpochs(uint64_t interval, FlushObserver* observer,
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
  next_epoch_ = epoch + 1;
  pushed_in_epoch_ = 0;
}

void Source::Reset() {
  Operator::Reset();
  if (epochs_armed()) return;
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
