#include "sched/partition.h"

#include "core/thread_scheduler.h"
#include "operators/latency_sink.h"
#include "util/logging.h"

namespace flexstream {

Partition::Partition(std::string name, std::vector<QueueOp*> queues,
                     std::unique_ptr<SchedulingStrategy> strategy,
                     Options options)
    : name_(std::move(name)),
      queues_(std::move(queues)),
      strategy_(std::move(strategy)),
      options_(options) {
  CHECK(strategy_ != nullptr);
  for (QueueOp* q : queues_) {
    q->SetEnqueueListener([this] { NotifyWork(); });
    // The owner token lets a kBlock producer running *inside* this
    // partition's drain (e.g. GTS: one context drains every queue) skip
    // waiting on a queue only it can empty.
    q->SetOwnerToken(this);
  }
}

Partition::~Partition() {
  RequestStop();
  Join();
  // Detach listeners: the queues may outlive this partition (e.g. when the
  // engine re-partitions the same graph).
  for (QueueOp* q : queues_) {
    q->SetEnqueueListener(nullptr);
    q->SetOwnerToken(nullptr);
  }
}

void Partition::Start() {
  CHECK(!running()) << name_ << " already running";
  stop_.store(false, std::memory_order_release);
  worker_ = PooledThread([this] { RunLoop(); });
}

void Partition::Run() {
  CHECK(!running()) << name_ << " already running";
  stop_.store(false, std::memory_order_release);
  RunLoop();
}

void Partition::RequestStop() {
  stop_.store(true, std::memory_order_release);
  NotifyWork();
}

void Partition::Join() {
  if (worker_.joinable()) worker_.join();
}

bool Partition::Done() const {
  for (const QueueOp* q : queues_) {
    if (!q->Exhausted()) return false;
  }
  return true;
}

size_t Partition::QueuedElements() const {
  size_t total = 0;
  for (const QueueOp* q : queues_) total += q->Size();
  return total;
}

bool Partition::IdleAtOpenInputs() const {
  bool any_open = false;
  for (const QueueOp* q : queues_) {
    if (q->Size() != 0) return false;  // has work — not idle
    if (!q->InputClosed()) any_open = true;
  }
  return any_open;
}

std::string DescribePartitions(const std::vector<Partition*>& partitions) {
  std::string out;
  for (const Partition* p : partitions) {
    out += "  partition '" + p->name() + "': drained=" +
           std::to_string(p->drained());
    if (const QueueOp* last = p->last_scheduled()) {
      out += " last_scheduled='" + last->name() + "'";
    }
    if (p->Done()) {
      out += " [done]";
    } else if (p->IdleAtOpenInputs()) {
      out += " [idle, inputs open]";
    } else if (!p->running()) {
      out += " [not running]";
    }
    out += " queues:";
    for (const QueueOp* q : p->queues()) {
      out += " " + q->name() + "=" + std::to_string(q->Size());
      if (q->dropped() > 0) {
        out += "(dropped " + std::to_string(q->dropped()) + ")";
      }
      if (q->block_waits() > 0) {
        out += "(waits " + std::to_string(q->block_waits());
        if (q->block_timeouts() > 0) {
          out += ", timeouts " + std::to_string(q->block_timeouts());
        }
        out += ")";
      }
      // The consumer's transient-failure retries: a stall paired with a
      // climbing retry count points at a flapping operator, not a
      // scheduling bug.
      if (q->fan_out() == 1) {
        const Operator* consumer = q->outputs()[0].target;
        if (consumer->fault_retries() > 0) {
          out += "(retries " + std::to_string(consumer->fault_retries()) + ")";
        }
        // End-to-end tail latency observed by a latency sink fed from this
        // queue: a no-progress partition with a climbing p999 is drowning,
        // one with a flat histogram is starved. Under GTS/OTS sinks are
        // DI-coupled to the operator that produces their input (no queue in
        // between), so when the consumer itself is not a latency sink, look
        // one DI edge further.
        const auto* lat = dynamic_cast<const LatencySink*>(consumer);
        if (lat == nullptr) {
          for (const auto& out_edge : consumer->outputs()) {
            lat = dynamic_cast<const LatencySink*>(out_edge.target);
            if (lat != nullptr) break;
          }
        }
        if (lat != nullptr) {
          const Histogram h = lat->SnapshotHistogram();
          if (h.count() > 0) out += "(lat " + h.PercentilesSummary() + ")";
        }
      }
      if (q->last_barrier_epoch() > 0) {
        out += "(epoch " + std::to_string(q->last_barrier_epoch()) + ")";
      }
      if (q->Exhausted()) out += "(eos)";
    }
    out += "\n";
  }
  return out;
}

void Partition::NotifyWork() {
  // Called from queue enqueue listeners, which fire only on a queue's
  // empty -> non-empty transition (and on EOS) — so this condvar ping costs
  // O(drain batches) rather than O(tuples). See queue/queue_op.h.
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    work_available_ = true;
  }
  cv_.notify_one();
}

bool Partition::HasPendingWork() const {
  for (const QueueOp* q : queues_) {
    if (q->HeadSeq() != QueueOp::kNoSeq) return true;
  }
  return false;
}

void Partition::ReleaseSlot() {
  if (ts_ != nullptr) ts_->Release(this);
}

void Partition::ReacquireSlot() {
  if (ts_ != nullptr) ts_->Acquire(this);
}

void Partition::RunLoop() {
  running_.store(true, std::memory_order_release);
  // Declare this thread as our draining context for the duration of the
  // loop: elements we push into our *own* queues (DI cycles, GTS) must not
  // kBlock-wait on them.
  QueueOp::SetCurrentDrainContext(this);
  if (ts_ != nullptr) QueueOp::SetCurrentSlotYielder(this);
  strategy_->Initialize(queues_);
  while (!stop_.load(std::memory_order_acquire)) {
    if (Done()) break;
    if (run_status_ != nullptr && run_status_->failed()) break;
    if (!HasPendingWork()) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, options_.idle_poll, [&] {
        return work_available_ || stop_.load(std::memory_order_acquire);
      });
      work_available_ = false;
      continue;
    }
    // Work is available: run a quantum (under the level-3 scheduler's
    // control when attached).
    if (ts_ != nullptr) ts_->Acquire(this);
    const TimePoint quantum_end = Now() + options_.quantum;
    while (!stop_.load(std::memory_order_acquire)) {
      QueueOp* next = strategy_->Next(queues_);
      if (next == nullptr) break;
      last_scheduled_.store(next, std::memory_order_relaxed);
      drained_.fetch_add(
          static_cast<int64_t>(next->DrainBatch(options_.batch_size)),
          std::memory_order_relaxed);
      if (run_status_ != nullptr && run_status_->failed()) break;
      if (Now() >= quantum_end) break;
      if (ts_ != nullptr && ts_->ShouldYield(this)) break;
    }
    if (ts_ != nullptr) ts_->Release(this);
  }
  QueueOp::SetCurrentSlotYielder(nullptr);
  QueueOp::SetCurrentDrainContext(nullptr);
  running_.store(false, std::memory_order_release);
}

}  // namespace flexstream
