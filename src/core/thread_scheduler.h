// The level-3 thread scheduler (TS) of the HMTS architecture.
//
// Section 4.2.2: "Concurrency is managed by a specific high-priority
// thread termed thread scheduler (TS). ... Our default TS accomplishes a
// preemptive priority-based scheduling strategy. It determines the next
// thread to be executed so that starvation is prevented. The distribution
// of the available CPU resources relies on priorities that can be adapted
// during runtime."
//
// Implementation: the TS grants up to `max_running` execution slots to
// partition worker threads. Workers call Acquire() before running a
// quantum and Release() after it; between batches they poll ShouldYield().
// Grants go to the waiter with the highest *effective* priority —
// base priority plus an aging bonus proportional to waiting time, which
// guarantees starvation freedom. Preemption is cooperative-with-flags:
// when a waiter outranks a running partition, the TS raises that
// partition's preempt flag so its very next ShouldYield() returns true
// (quantum expiry also forces a yield whenever anyone is waiting).
// Priorities can be changed at any time via SetPriority.

#ifndef FLEXSTREAM_CORE_THREAD_SCHEDULER_H_
#define FLEXSTREAM_CORE_THREAD_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/worker_pool.h"
#include "util/clock.h"

namespace flexstream {

class Partition;

class ThreadScheduler {
 public:
  struct Options {
    /// Max partitions running concurrently; 0 = hardware concurrency.
    int max_running = 0;
    /// Max continuous run of one partition while others wait.
    Duration quantum = std::chrono::milliseconds(2);
    /// Effective-priority boost per second of waiting (starvation
    /// prevention). 0 disables aging.
    double aging_per_second = 1.0;
    /// Watchdog sampling period; zero (the default) disables the watchdog.
    /// Must comfortably exceed the partitions' idle_poll so a lost wakeup
    /// recovered by the poll failsafe is not misreported as a stall.
    Duration watchdog_interval{};
    /// Consecutive no-progress samples before a partition with queued work
    /// is declared stalled.
    int watchdog_stall_intervals = 2;

    bool operator==(const Options&) const = default;
  };

  explicit ThreadScheduler(Options options);
  ThreadScheduler() : ThreadScheduler(Options()) {}

  /// Stops the watchdog thread, if running.
  ~ThreadScheduler();

  ThreadScheduler(const ThreadScheduler&) = delete;
  ThreadScheduler& operator=(const ThreadScheduler&) = delete;

  /// Registers a partition with a base priority (higher = preferred).
  /// Partitions may also Acquire without prior registration (priority 0).
  void Register(Partition* partition, double priority);

  /// Removes a partition's bookkeeping. Must not be running or waiting.
  void Unregister(Partition* partition);

  /// Adjusts a partition's base priority at runtime. Takes effect at the
  /// next grant decision; may raise a preempt flag immediately.
  void SetPriority(Partition* partition, double priority);

  double PriorityOf(const Partition* partition) const;

  /// Blocks until an execution slot is granted to `partition`.
  void Acquire(Partition* partition);

  /// Returns the slot. Wakes the best waiter, if any.
  void Release(Partition* partition);

  /// True when `partition` should end its quantum now: it was preempted by
  /// a higher-priority waiter, or its quantum expired while others wait.
  /// Partitions poll this between drain batches, so the common case —
  /// nobody waiting, no preempt pending — answers from two relaxed atomic
  /// loads without touching the scheduler mutex.
  bool ShouldYield(const Partition* partition) const;

  int running_count() const;
  int waiting_count() const;
  int max_running() const {
    return max_running_mirror_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

  /// Runtime slot-pool resize (the SLO controller's rung-1 actuation).
  /// Growing takes effect immediately (queued waiters are granted the new
  /// slots); shrinking is cooperative — no partition is stopped, but as
  /// running partitions yield, re-acquisition is throttled to the new
  /// budget. `max_running` must be >= 1.
  void SetMaxRunning(int max_running);

  /// Starts the no-progress watchdog over `partitions` (requires a nonzero
  /// Options::watchdog_interval). Every interval it samples each
  /// partition's drained() counter; a partition that still has queued work,
  /// is not Done(), and shows no drain progress for
  /// `watchdog_stall_intervals` consecutive samples is reported as stalled:
  /// a warning with the full DescribePartitions() snapshot (per-queue
  /// depths + last-scheduled queue) is logged and stall_events()
  /// increments. Partitions idling at open inputs or done at EOS are never
  /// reported — no work is not no progress.
  void StartWatchdog(std::vector<Partition*> partitions);

  /// Stops and joins the watchdog thread. Idempotent.
  void StopWatchdog();

  /// Stall events reported since StartWatchdog.
  int64_t stall_events() const {
    return stall_events_.load(std::memory_order_relaxed);
  }

  /// The most recent stall report ("" when none) — partition snapshot text
  /// as logged. For tests and engine diagnostics.
  std::string LastStallReport() const;

  /// Installs a callback whose text is appended to every watchdog stall
  /// report (and to LastStallReport). The SLO controller registers one so
  /// a stuck run's snapshot shows the current ladder rung and the last
  /// control action. Thread-safe; nullptr detaches.
  void SetStallAnnotator(std::function<std::string()> annotator);

 private:
  struct Info {
    double priority = 0.0;
    bool running = false;
    bool waiting = false;
    bool preempt = false;
    TimePoint wait_start{};
    TimePoint grant_time{};
  };

  double EffectivePriority(const Info& info, TimePoint now) const;
  /// Grants free slots to the best waiters and raises preempt flags;
  /// caller holds mutex_.
  void Rebalance(TimePoint now);
  void WatchdogLoop();

  Options options_;
  int max_running_;  // written under mutex_ (SetMaxRunning), read under it
  // Lock-free mirror of max_running_ for the introspection getter.
  std::atomic<int> max_running_mirror_{1};

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<const Partition*, Info> infos_;
  int running_count_ = 0;
  int waiting_count_ = 0;

  // Lock-free mirrors maintained under mutex_, read by the ShouldYield
  // fast path: the number of waiting partitions and the number of raised
  // preempt flags.
  std::atomic<int> waiting_count_fast_{0};
  std::atomic<int> preempt_pending_{0};

  // --- watchdog ----------------------------------------------------------
  PooledThread watchdog_thread_;
  std::vector<Partition*> watched_;
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<int64_t> stall_events_{0};
  mutable std::mutex watchdog_mutex_;  // guards the stop cv + last report
  std::condition_variable watchdog_cv_;
  std::string last_stall_report_;
  std::shared_ptr<const std::function<std::string()>> stall_annotator_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_CORE_THREAD_SCHEDULER_H_
