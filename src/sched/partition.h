// The level-2 scheduling unit of the HMTS architecture (Section 4.2.2).
//
// A Partition owns a set of decoupling queues — the entry points of one
// connected subgraph of the query graph — and executes that subgraph
// "like a graph-threaded scheduler": one thread repeatedly asks the
// partition's strategy for the next queue and drains a batch from it;
// every drained element then flows through the partition's operators with
// direct interoperability until it reaches a sink or another partition's
// queue.
//
// GTS is the degenerate Partition holding *all* queues of the graph; OTS
// is one Partition per queue. HMTS runs several partitions concurrently
// under a level-3 ThreadScheduler (core/thread_scheduler.h), which the
// partition cooperates with at batch boundaries (Acquire / ShouldYield /
// Release).

#ifndef FLEXSTREAM_SCHED_PARTITION_H_
#define FLEXSTREAM_SCHED_PARTITION_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "queue/queue_op.h"
#include "sched/strategy.h"
#include "sched/worker_pool.h"
#include "util/clock.h"

namespace flexstream {

class ThreadScheduler;

class Partition : private QueueOp::SlotYielder {
 public:
  struct Options {
    /// Max elements drained per strategy decision. This is the
    /// *scheduling* granularity (how often the level-2 strategy re-picks a
    /// queue), orthogonal to the *delivery* granularity of
    /// EngineOptions::emit_batch_size: with batch delivery enabled, one
    /// drain of `batch_size` elements leaves the queue as
    /// ceil(batch_size / emit_batch_size)-ish downstream ReceiveBatch
    /// calls (runs are capped by what is actually queued). Keeping
    /// batch_size >= emit_batch_size preserves full delivery batches; see
    /// bench/ablation_batch_quantum.cc for the interplay.
    size_t batch_size = 64;
    /// Max continuous run before offering to yield to the level-3
    /// scheduler (and re-checking stop/done).
    Duration quantum = std::chrono::milliseconds(1);
    /// Failsafe re-check period while waiting for work. Wakeups normally
    /// come from the queues' enqueue listeners, so this can be long; a
    /// short period makes large OTS configurations (hundreds of idle
    /// partition threads) burn the CPU in poll wakeups.
    Duration idle_poll = std::chrono::milliseconds(100);

    bool operator==(const Options&) const = default;
  };

  Partition(std::string name, std::vector<QueueOp*> queues,
            std::unique_ptr<SchedulingStrategy> strategy, Options options);
  Partition(std::string name, std::vector<QueueOp*> queues,
            std::unique_ptr<SchedulingStrategy> strategy)
      : Partition(std::move(name), std::move(queues), std::move(strategy),
                  Options()) {}

  /// Stops and joins the worker if still running.
  ~Partition();

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<QueueOp*>& queues() const { return queues_; }
  SchedulingStrategy* strategy() { return strategy_.get(); }

  /// Attaches the level-3 scheduler. Must be called before Start/Run.
  void set_thread_scheduler(ThreadScheduler* ts) { ts_ = ts; }

  /// Attaches the run's first-failure collector. The run loop polls it at
  /// batch boundaries and exits early once any operator has failed, so a
  /// poisoned graph winds down instead of spinning on doomed work. Set
  /// while quiescent (before Start/Run).
  void SetRunStatus(RunStatus* run_status) { run_status_ = run_status; }

  /// Runs the run loop on a pooled worker thread (sched/worker_pool.h).
  void Start();

  /// Executes the run loop in the calling thread (blocks until the
  /// partition is done or stopped). Used by tests and by GTS drivers that
  /// dedicate their own thread.
  void Run();

  /// Requests the run loop to exit at the next batch boundary.
  void RequestStop();

  /// Joins the worker thread (no-op if Run was used or already joined).
  void Join();

  /// True when every queue of the partition has forwarded EOS and is
  /// empty — the partition will never have work again.
  bool Done() const;

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Total data elements drained so far.
  int64_t drained() const { return drained_.load(std::memory_order_relaxed); }

  /// Worker wakeups requested so far (queue listeners + stop requests).
  /// With coalesced enqueue notifications this grows O(drain batches), not
  /// O(tuples) — see queue/queue_op.h.
  int64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }

  /// Sum of current queue sizes (the partition's queued memory).
  size_t QueuedElements() const;

  /// The queue the strategy scheduled most recently (nullptr before the
  /// first pick). Watchdog diagnostics only — the pointer is stable (queues
  /// outlive the run) but the *value* is racy by nature.
  QueueOp* last_scheduled() const {
    return last_scheduled_.load(std::memory_order_relaxed);
  }

  /// True when the partition has no work *now* and its inputs are still
  /// open — i.e. it is idling at a live stream, not stalled. The watchdog
  /// uses this to separate "no progress because blocked" from "no progress
  /// because nothing arrived".
  bool IdleAtOpenInputs() const;

 private:
  void NotifyWork();
  bool HasPendingWork() const;
  void RunLoop();

  // QueueOp::SlotYielder: a kBlock park inside our drain hands the level-3
  // execution slot to other partitions — on a machine with few slots the
  // consumer that frees the space may be waiting for exactly ours.
  void ReleaseSlot() override;
  void ReacquireSlot() override;

  const std::string name_;
  std::vector<QueueOp*> queues_;
  std::unique_ptr<SchedulingStrategy> strategy_;
  Options options_;
  ThreadScheduler* ts_ = nullptr;

  RunStatus* run_status_ = nullptr;

  PooledThread worker_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> drained_{0};
  std::atomic<int64_t> wakeups_{0};
  std::atomic<QueueOp*> last_scheduled_{nullptr};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool work_available_ = false;
};

/// One line per partition: name, per-queue depths, drained count, the
/// last-scheduled queue, and whether the partition is done / idle / live.
/// Shared by the ThreadScheduler watchdog and the engine's wait-timeout
/// diagnostics.
std::string DescribePartitions(const std::vector<Partition*>& partitions);

}  // namespace flexstream

#endif  // FLEXSTREAM_SCHED_PARTITION_H_
