#include "operators/operator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "tuple/batch_pool.h"
#include "tuple/columnar_batch.h"
#include "util/busy_work.h"
#include "util/logging.h"

namespace flexstream {
namespace {

std::atomic<bool> g_stats_enabled{true};

// Accumulates the wall time of nested Receive() calls so a parent can
// subtract child time from its own measurement (self-time accounting for
// DI call chains).
thread_local double tl_child_micros = 0.0;

// The node whose Emit/drain loop is making the current Receive() call.
// Barrier alignment keys input channels on it (variadic operators receive
// every producer on port 0, so the port alone cannot identify a channel).
}  // namespace

void SetStatsCollectionEnabled(bool enabled) {
  g_stats_enabled.store(enabled, std::memory_order_relaxed);
}

bool StatsCollectionEnabled() {
  return g_stats_enabled.load(std::memory_order_relaxed);
}

Operator::Operator(Kind kind, std::string name, int input_arity)
    : Node(kind, std::move(name), input_arity) {}

void Operator::SetSimulatedCostMicros(double micros) {
  simulated_cost_micros_ = micros;
}

void Operator::SetSimulatedBlockingMicros(double micros) {
  simulated_blocking_micros_ = micros;
}

namespace {
/// The simulated-blocking sleep. Kept out of the cost-stats window: it
/// models waiting (I/O), not computing, so c(v) must not see it.
void SleepBlockingMicros(double micros) {
  if (micros >= 1.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(micros)));
  }
}
}  // namespace

std::unique_ptr<Operator> Operator::CloneFresh(std::string) const {
  return nullptr;
}

void Operator::OnEpochAligned(uint64_t) {}

void Operator::OnInputEos(const Node*, int) {}

void Operator::SetFaultHook(FaultHook hook) {
  fault_hook_ = hook ? std::make_shared<const FaultHook>(std::move(hook))
                     : nullptr;
}

void Operator::Fail(Status status) {
  if (failed_.exchange(true, std::memory_order_acq_rel)) return;
  if (run_status_ != nullptr) {
    run_status_->Report(status, name());
  } else {
    LOG(ERROR) << DebugString() << " failed with no RunStatus attached: "
               << status;
  }
}

bool Operator::PassesFaultHook(const Tuple& tuple, int port) {
  // Copy the shared_ptr so a concurrent SetFaultHook(nullptr) from a
  // teardown path cannot free the function mid-call.
  const std::shared_ptr<const FaultHook> hook = fault_hook_;
  if (hook == nullptr) return true;
  for (int attempt = 0;; ++attempt) {
    switch ((*hook)(*this, tuple, port, attempt)) {
      case FaultAction::kProceed:
        return true;
      case FaultAction::kPermanentFailure:
        Fail(Status::Internal("permanent fault while processing element"));
        return false;
      case FaultAction::kTransientFailure: {
        if (attempt >= kMaxFaultRetries) {
          Fail(Status::Internal("transient-fault retry budget exhausted (" +
                                std::to_string(kMaxFaultRetries) +
                                " attempts)"));
          return false;
        }
        fault_retries_.fetch_add(1, std::memory_order_relaxed);
        // Capped exponential backoff with per-operator seeded jitter:
        // parallel partitions retrying against a shared downstream draw
        // different sleeps, so they don't thundering-herd it in lockstep.
        double sleep_micros =
            std::min(retry_backoff_.cap_micros,
                     retry_backoff_.base_micros *
                         std::ldexp(1.0, std::min(attempt, 62)));
        if (retry_backoff_.jitter > 0.0) {
          if (retry_rng_ == nullptr) {
            retry_rng_ = std::make_unique<std::mt19937_64>(
                retry_backoff_.seed ^
                static_cast<uint64_t>(std::hash<std::string>{}(name())));
          }
          std::uniform_real_distribution<double> unit(0.0, 1.0);
          sleep_micros *= 1.0 - retry_backoff_.jitter * unit(*retry_rng_);
        }
        if (sleep_micros >= 1.0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<int64_t>(sleep_micros)));
        }
        break;
      }
    }
  }
}

void Operator::SetRetryBackoff(const RetryBackoffOptions& options) {
  retry_backoff_ = options;
  retry_rng_.reset();  // re-seed lazily with the new options
}

void Operator::SetSerializedReceive(bool enabled) {
  if (enabled && receive_mutex_ == nullptr) {
    receive_mutex_ = std::make_unique<std::mutex>();
  } else if (!enabled) {
    receive_mutex_.reset();
  }
}

void Operator::Receive(const Tuple& tuple, int port) {
  if (receive_mutex_ != nullptr) {
    std::lock_guard<std::mutex> lock(*receive_mutex_);
    ReceiveLocked(tuple, port);
    return;
  }
  ReceiveLocked(tuple, port);
}

void Operator::Receive(Tuple&& tuple, int port) {
  // Qualified call: a non-virtual forward into the base lvalue path. Safe
  // because an operator that overrides the lvalue Receive must override
  // the rvalue one too (QueueOp, the only overrider, does); spares every
  // rvalue delivery a second virtual dispatch.
  Operator::Receive(static_cast<const Tuple&>(tuple), port);
}

void Operator::ReceiveBatch(TupleBatch&& batch, int port) {
  if (receive_mutex_ != nullptr) {
    std::lock_guard<std::mutex> lock(*receive_mutex_);
    ReceiveBatchLocked(std::move(batch), port);
    return;
  }
  ReceiveBatchLocked(std::move(batch), port);
}

void Operator::ReceiveBatchLocked(TupleBatch&& batch, int port) {
  if (batch.empty()) return;
  if (epoch_state_ != nullptr) {
    // Batches never straddle a barrier (producers flush before emitting
    // one), so the whole batch is either pre-barrier input on an open
    // channel or post-barrier input on a blocked one.
    EpochChannel* ch = ChannelForCurrentSender(port);
    if (ch != nullptr && ch->blocked) {
      for (Tuple& tuple : batch) ch->backlog.push_back(std::move(tuple));
      return;
    }
  }
  DeliverBatchLocked(std::move(batch), port);
}

void Operator::DeliverBatchLocked(TupleBatch&& batch, int port) {
  DCHECK(!closed_) << DebugString() << " received data after close";
  if (failed_.load(std::memory_order_relaxed)) return;
  const size_t n = batch.size();
  const bool per_element = fault_hook_ != nullptr || stamp_emit_seq_;
  if (simulated_blocking_micros_ > 0.0 && !per_element) {
    SleepBlockingMicros(simulated_blocking_micros_ * static_cast<double>(n));
  }
  if (!StatsCollectionEnabled()) {
    if (per_element) {
      ProcessElements(batch, port);
      return;
    }
    if (simulated_cost_micros_ > 0.0) {
      BurnMicros(simulated_cost_micros_ * static_cast<double>(n));
    }
    ProcessBatch(std::move(batch), port);
    return;
  }
  const TimePoint start = Now();
  stats().RecordArrivalBatch(start, static_cast<int64_t>(n));
  const double saved_child_micros = tl_child_micros;
  tl_child_micros = 0.0;
  size_t processed = n;
  if (per_element) {
    processed = ProcessElements(batch, port);
  } else {
    if (simulated_cost_micros_ > 0.0) {
      BurnMicros(simulated_cost_micros_ * static_cast<double>(n));
    }
    ProcessBatch(std::move(batch), port);
  }
  const double total_micros = static_cast<double>(ToMicros(Now() - start));
  const double self_micros = std::max(0.0, total_micros - tl_child_micros);
  stats().RecordProcessedBatch(self_micros, static_cast<int64_t>(processed));
  tl_child_micros = saved_child_micros + total_micros;
}

size_t Operator::ProcessElements(const TupleBatch& batch, int port) {
  // Per-element machinery inside one batch-level gate: the fault hook
  // votes and the seq stamp is read element by element, exactly as on the
  // per-tuple path. The sender is re-declared before every element
  // because a processed element's downstream Emit overwrites the
  // thread-local, and sender-keyed consumers (the Merge's lane lookup)
  // must see the channel the batch arrived on.
  const Node* sender = tl_delivery_sender_;
  size_t processed = 0;
  for (const Tuple& tuple : batch) {
    // The first element that poisons the operator (a permanent fault, an
    // exhausted retry budget, or a Fail from Process) drops the rest.
    if (failed_.load(std::memory_order_relaxed)) break;
    tl_delivery_sender_ = sender;
    if (fault_hook_ != nullptr && !PassesFaultHook(tuple, port)) break;
    if (stamp_emit_seq_) current_input_seq_ = tuple.seq();
    if (simulated_blocking_micros_ > 0.0) {
      // Waiting, not computing: booked as child time so the batch's c(v)
      // excludes it, as the per-tuple path does.
      const TimePoint sleep_start = Now();
      SleepBlockingMicros(simulated_blocking_micros_);
      tl_child_micros += static_cast<double>(ToMicros(Now() - sleep_start));
    }
    if (simulated_cost_micros_ > 0.0) BurnMicros(simulated_cost_micros_);
    Process(tuple, port);
    ++processed;
  }
  return processed;
}

void Operator::ProcessBatch(TupleBatch&& batch, int port) {
  for (const Tuple& tuple : batch) Process(tuple, port);
}

void Operator::ReceiveColumnar(ColumnarBatchPtr batch, int port) {
  if (receive_mutex_ != nullptr) {
    std::lock_guard<std::mutex> lock(*receive_mutex_);
    ReceiveColumnarLocked(std::move(batch), port);
    return;
  }
  ReceiveColumnarLocked(std::move(batch), port);
}

void Operator::ReceiveColumnarLocked(ColumnarBatchPtr batch, int port) {
  if (batch == nullptr || batch->empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  if (!columnar_native_ || fault_hook_ != nullptr || stamp_emit_seq_ ||
      (epoch_state_ != nullptr && SenderChannelBlocked(port))) {
    // The fallback contract (DESIGN.md §17): no kernel, per-element
    // machinery (fault hooks, seq stamping) is engaged, or the sender's
    // barrier channel is blocked — materialize to rows and take the row
    // batch path, which votes per element or buffers the rows in the
    // channel's backlog. An armed epoch with the channel open keeps the
    // columnar kernel: the batch is wholly pre-barrier input.
    ReceiveBatchLocked(columnar::MaterializeAndRelease(std::move(batch)),
                       port);
    return;
  }
  DCHECK(!closed_) << DebugString() << " received data after close";
  if (failed_.load(std::memory_order_relaxed)) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  const size_t n = batch->size();
  if (simulated_blocking_micros_ > 0.0) {
    SleepBlockingMicros(simulated_blocking_micros_ * static_cast<double>(n));
  }
  if (!StatsCollectionEnabled()) {
    if (simulated_cost_micros_ > 0.0) {
      BurnMicros(simulated_cost_micros_ * static_cast<double>(n));
    }
    ProcessColumnar(std::move(batch), port);
    return;
  }
  const TimePoint start = Now();
  stats().RecordArrivalBatch(start, static_cast<int64_t>(n));
  const double saved_child_micros = tl_child_micros;
  tl_child_micros = 0.0;
  if (simulated_cost_micros_ > 0.0) {
    BurnMicros(simulated_cost_micros_ * static_cast<double>(n));
  }
  ProcessColumnar(std::move(batch), port);
  const double total_micros = static_cast<double>(ToMicros(Now() - start));
  const double self_micros = std::max(0.0, total_micros - tl_child_micros);
  stats().RecordProcessedBatch(self_micros, static_cast<int64_t>(n));
  tl_child_micros = saved_child_micros + total_micros;
}

void Operator::ProcessColumnar(ColumnarBatchPtr batch, int port) {
  ProcessBatch(columnar::MaterializeAndRelease(std::move(batch)), port);
}

SchemaPtr Operator::InferOutputSchema(const std::vector<SchemaPtr>&) const {
  return nullptr;
}

void Operator::ReceiveLocked(const Tuple& tuple, int port) {
  // Barrier alignment engages lazily: until the first barrier arrives,
  // every delivery takes the plain path below at zero extra cost.
  if (epoch_state_ != nullptr || tuple.is_barrier()) {
    if (HandleEpochDelivery(tuple, port)) return;
  }
  DeliverLocked(tuple, port);
}

bool Operator::HandleEpochDelivery(const Tuple& tuple, int port) {
  if (epoch_state_ == nullptr) InitEpochState(/*aligned_epoch=*/0);
  EpochChannel* ch = ChannelForCurrentSender(port);
  if (ch == nullptr) {
    // Delivery from outside the graph (test driving the operator
    // directly): no channel structure to align — swallow barriers, let
    // everything else through.
    return tuple.is_barrier();
  }
  if (ch->blocked) {
    // Post-barrier arrival: held back until this operator finishes the
    // epoch, so the snapshot sees exactly the pre-barrier input.
    ch->backlog.push_back(tuple);
    return true;
  }
  if (tuple.is_barrier()) {
    // A poisoned operator must not align: its state diverged when it
    // started dropping data, and a snapshot of it must never commit.
    if (failed_.load(std::memory_order_relaxed)) return true;
    DCHECK_EQ(tuple.epoch(), epoch_state_->aligned_epoch + 1);
    ch->blocked = true;
    AlignAndRelease();
    return true;
  }
  if (tuple.is_eos()) {
    // A closed channel counts as aligned for every future epoch.
    ch->closed = true;
    DeliverLocked(tuple, port);
    AlignAndRelease();
    return true;
  }
  return false;
}

Operator::EpochChannel* Operator::ChannelForCurrentSender(int port) {
  auto& channels = epoch_state_->channels;
  if (channels.size() == 1) return &channels[0];
  for (EpochChannel& ch : channels) {
    if (ch.source == tl_delivery_sender_ && ch.port == port) return &ch;
  }
  DCHECK(channels.empty())
      << DebugString() << " delivery from unknown sender on port " << port;
  return nullptr;
}

bool Operator::SenderChannelBlocked(int port) {
  const EpochChannel* ch = ChannelForCurrentSender(port);
  return ch != nullptr && ch->blocked;
}

void Operator::InitEpochState(uint64_t aligned_epoch) {
  epoch_state_ = std::make_unique<EpochState>();
  epoch_state_->aligned_epoch = aligned_epoch;
  aligned_epoch_.store(aligned_epoch, std::memory_order_release);
  for (const InEdge& in : inputs()) {
    EpochChannel ch;
    ch.source = in.source;
    ch.port = in.port;
    epoch_state_->channels.push_back(std::move(ch));
  }
}

void Operator::AlignAndRelease() {
  EpochState& es = *epoch_state_;
  if (es.releasing) return;
  es.releasing = true;
  for (;;) {
    // Aligned when every open channel is blocked at the next barrier
    // (closed channels are aligned at infinity) and at least one channel
    // is actually blocked — an all-closed operator has nothing to align.
    bool any_blocked = false;
    bool all_ready = true;
    for (const EpochChannel& ch : es.channels) {
      if (ch.closed) continue;
      if (ch.blocked) {
        any_blocked = true;
      } else {
        all_ready = false;
        break;
      }
    }
    if (!any_blocked || !all_ready) break;
    const uint64_t epoch = ++es.aligned_epoch;
    aligned_epoch_.store(epoch, std::memory_order_release);
    // Alignment hook first: emissions made here (the ordered Merge's lane
    // flush) still belong to the closing epoch and must precede both the
    // snapshot and the downstream barrier.
    OnEpochAligned(epoch);
    // State now reflects exactly epochs 1..epoch: snapshot, then let the
    // barrier race ahead of the backlog.
    if (const std::shared_ptr<const EpochCallback> cb = epoch_callback_) {
      (*cb)(epoch);
    }
    EmitBarrier(Tuple::EpochBarrier(epoch));
    for (EpochChannel& ch : es.channels) ch.blocked = false;
    // Release each channel's backlog until it re-blocks (next barrier),
    // closes, or empties; another full alignment may follow immediately.
    // Each run of data elements up to the next punctuation is delivered
    // as one batch. The delivery sender is re-declared before every
    // delivery: the value left in the thread-local belongs to whichever
    // delivery triggered the alignment (and each delivery's downstream
    // Emit overwrites it again), but sender-keyed consumers — the Merge's
    // lane lookup — must see the channel the element actually arrived on.
    for (EpochChannel& ch : es.channels) {
      while (!ch.blocked && !ch.backlog.empty()) {
        if (ch.backlog.front().is_data()) {
          TupleBatch run;
          while (!ch.backlog.empty() && ch.backlog.front().is_data()) {
            run.PushBack(std::move(ch.backlog.front()));
            ch.backlog.pop_front();
          }
          tl_delivery_sender_ = ch.source;
          DeliverBatchLocked(std::move(run), ch.port);
          continue;
        }
        Tuple t = std::move(ch.backlog.front());
        ch.backlog.pop_front();
        if (t.is_barrier()) {
          ch.blocked = true;
        } else {
          ch.closed = true;
          tl_delivery_sender_ = ch.source;
          DeliverLocked(t, ch.port);
        }
      }
    }
  }
  es.releasing = false;
}

void Operator::SetEpochCallback(EpochCallback callback) {
  epoch_callback_ =
      callback ? std::make_shared<const EpochCallback>(std::move(callback))
               : nullptr;
}

void Operator::SetRecoveredEpoch(uint64_t epoch) { InitEpochState(epoch); }

thread_local const Node* Operator::tl_delivery_sender_ = nullptr;

void Operator::DeliverLocked(const Tuple& tuple, int port) {
  if (tuple.is_eos()) {
    OnInputEos(tl_delivery_sender_, port);
    max_eos_timestamp_ = std::max(max_eos_timestamp_, tuple.timestamp());
    ++eos_received_;
    DCHECK_LE(eos_received_, std::max<size_t>(fan_in(), 1));
    if (eos_received_ >= fan_in() && !closed_) {
      closed_ = true;
      OnAllInputsClosed(max_eos_timestamp_);
      // Tell the checkpoint coordinator this operator is out of the
      // alignment game: its final state is fully reflected downstream.
      if (const std::shared_ptr<const EpochCallback> cb = epoch_callback_) {
        (*cb)(kEpochClosed);
      }
    }
    return;
  }
  DCHECK(!closed_) << DebugString() << " received data after close";
  // A failed operator is poisoned: it drops data silently (the failure is
  // already recorded in the RunStatus) but keeps honoring EOS above so the
  // rest of the graph can close down.
  if (failed_.load(std::memory_order_relaxed)) return;
  if (fault_hook_ != nullptr && !PassesFaultHook(tuple, port)) return;
  if (stamp_emit_seq_) current_input_seq_ = tuple.seq();
  if (simulated_blocking_micros_ > 0.0) {
    SleepBlockingMicros(simulated_blocking_micros_);
  }
  if (!StatsCollectionEnabled()) {
    if (simulated_cost_micros_ > 0.0) BurnMicros(simulated_cost_micros_);
    Process(tuple, port);
    return;
  }
  const TimePoint start = Now();
  stats().RecordArrival(start);
  const double saved_child_micros = tl_child_micros;
  tl_child_micros = 0.0;
  // The synthetic burn sits inside the measured window so c(v) reflects it.
  if (simulated_cost_micros_ > 0.0) BurnMicros(simulated_cost_micros_);
  Process(tuple, port);
  const double total_micros = static_cast<double>(ToMicros(Now() - start));
  const double self_micros = std::max(0.0, total_micros - tl_child_micros);
  stats().RecordProcessed(self_micros);
  tl_child_micros = saved_child_micros + total_micros;
}

void Operator::OnAllInputsClosed(AppTime timestamp) { EmitEos(timestamp); }

void Operator::Emit(const Tuple& tuple) {
  DCHECK(tuple.is_data());
  if (stamp_emit_seq_) {
    // Stamping needs a mutable element; pay the copy once and take the
    // move path (stamped there).
    EmitMove(Tuple(tuple));
    return;
  }
  if (StatsCollectionEnabled()) stats().RecordEmitted(1);
  for (const auto& edge : outputs()) {
    tl_delivery_sender_ = this;  // re-set per edge: nested Emits overwrite it
    edge.target->Receive(tuple, edge.port);
  }
}

void Operator::EmitMove(Tuple&& tuple) {
  DCHECK(tuple.is_data());
  if (stamp_emit_seq_) tuple.set_seq(current_input_seq_);
  if (StatsCollectionEnabled()) stats().RecordEmitted(1);
  const auto& edges = outputs();
  if (edges.empty()) return;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    tl_delivery_sender_ = this;
    edges[i].target->Receive(tuple, edges[i].port);
  }
  const OutEdge& last = edges.back();
  tl_delivery_sender_ = this;
  last.target->Receive(std::move(tuple), last.port);
}

void Operator::EmitBatch(TupleBatch&& batch) {
  if (batch.empty()) return;
  if (StatsCollectionEnabled()) {
    stats().RecordEmitted(static_cast<int64_t>(batch.size()));
  }
  const auto& edges = outputs();
  if (edges.empty()) return;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    TupleBatch copy = batch;
    tl_delivery_sender_ = this;
    edges[i].target->ReceiveBatch(std::move(copy), edges[i].port);
  }
  const OutEdge& last = edges.back();
  tl_delivery_sender_ = this;
  last.target->ReceiveBatch(std::move(batch), last.port);
}

void Operator::EmitColumnar(ColumnarBatchPtr batch) {
  if (batch == nullptr || batch->empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  if (StatsCollectionEnabled()) {
    stats().RecordEmitted(static_cast<int64_t>(batch->size()));
  }
  const auto& edges = outputs();
  if (edges.empty()) {
    columnar::ReleaseBatch(std::move(batch));
    return;
  }
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    ColumnarBatchPtr copy = columnar::AcquireBatch(batch->schema_ptr());
    copy->CopyFrom(*batch);
    tl_delivery_sender_ = this;
    edges[i].target->ReceiveColumnar(std::move(copy), edges[i].port);
  }
  const OutEdge& last = edges.back();
  tl_delivery_sender_ = this;
  last.target->ReceiveColumnar(std::move(batch), last.port);
}

void Operator::EmitTo(size_t output_index, const Tuple& tuple) {
  DCHECK(tuple.is_data());
  DCHECK_LT(output_index, outputs().size());
  if (stamp_emit_seq_) {
    EmitTo(output_index, Tuple(tuple));  // copy so the stamp can land
    return;
  }
  if (StatsCollectionEnabled()) stats().RecordEmitted(1);
  const OutEdge& edge = outputs()[output_index];
  tl_delivery_sender_ = this;
  edge.target->Receive(tuple, edge.port);
}

void Operator::EmitTo(size_t output_index, Tuple&& tuple) {
  DCHECK(tuple.is_data());
  DCHECK_LT(output_index, outputs().size());
  if (stamp_emit_seq_) tuple.set_seq(current_input_seq_);
  if (StatsCollectionEnabled()) stats().RecordEmitted(1);
  const OutEdge& edge = outputs()[output_index];
  tl_delivery_sender_ = this;
  edge.target->Receive(std::move(tuple), edge.port);
}

void Operator::EmitBatchTo(size_t output_index, TupleBatch&& batch) {
  if (batch.empty()) return;
  DCHECK_LT(output_index, outputs().size());
  if (StatsCollectionEnabled()) {
    stats().RecordEmitted(static_cast<int64_t>(batch.size()));
  }
  const OutEdge& edge = outputs()[output_index];
  tl_delivery_sender_ = this;
  edge.target->ReceiveBatch(std::move(batch), edge.port);
}

void Operator::EmitEos(AppTime timestamp) {
  const Tuple eos = Tuple::EndOfStream(timestamp);
  for (const auto& edge : outputs()) {
    tl_delivery_sender_ = this;
    edge.target->Receive(eos, edge.port);
  }
}

void Operator::EmitBarrier(const Tuple& barrier) {
  DCHECK(barrier.is_barrier());
  for (const auto& edge : outputs()) {
    tl_delivery_sender_ = this;
    edge.target->Receive(barrier, edge.port);
  }
}

void Operator::Reset() {
  eos_received_ = 0;
  closed_ = false;
  max_eos_timestamp_ = 0;
  current_input_seq_ = 0;
  failed_.store(false, std::memory_order_release);
  fault_retries_.store(0, std::memory_order_relaxed);
  // Epoch machinery re-engages at the next barrier (or via
  // SetRecoveredEpoch); the callback survives like the fault hook does.
  epoch_state_.reset();
  aligned_epoch_.store(0, std::memory_order_release);
}

}  // namespace flexstream
