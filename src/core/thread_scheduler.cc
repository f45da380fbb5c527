#include "core/thread_scheduler.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "sched/partition.h"
#include "util/logging.h"

namespace flexstream {

ThreadScheduler::ThreadScheduler(Options options) : options_(options) {
  max_running_ = options_.max_running > 0
                     ? options_.max_running
                     : static_cast<int>(
                           std::max(1u, std::thread::hardware_concurrency()));
  max_running_mirror_.store(max_running_, std::memory_order_relaxed);
}

void ThreadScheduler::SetMaxRunning(int max_running) {
  CHECK_GE(max_running, 1);
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_running == max_running_) return;
  max_running_ = max_running;
  max_running_mirror_.store(max_running, std::memory_order_relaxed);
  // Growing: hand the new slots to queued waiters right away. Shrinking:
  // nothing to do here — running partitions finish their quanta and the
  // smaller budget throttles re-acquisition (Rebalance grants nothing
  // while running_count_ >= max_running_).
  Rebalance(Now());
}

ThreadScheduler::~ThreadScheduler() { StopWatchdog(); }

void ThreadScheduler::StartWatchdog(std::vector<Partition*> partitions) {
  CHECK(options_.watchdog_interval > Duration::zero())
      << "StartWatchdog requires a nonzero watchdog_interval";
  CHECK(!watchdog_thread_.joinable()) << "watchdog already running";
  watched_ = std::move(partitions);
  watchdog_stop_.store(false, std::memory_order_release);
  watchdog_thread_ = PooledThread([this] { WatchdogLoop(); });
}

void ThreadScheduler::StopWatchdog() {
  if (!watchdog_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_.store(true, std::memory_order_release);
  }
  watchdog_cv_.notify_all();
  watchdog_thread_.join();
}

std::string ThreadScheduler::LastStallReport() const {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  return last_stall_report_;
}

void ThreadScheduler::SetStallAnnotator(
    std::function<std::string()> annotator) {
  std::lock_guard<std::mutex> lock(watchdog_mutex_);
  stall_annotator_ =
      annotator == nullptr
          ? nullptr
          : std::make_shared<const std::function<std::string()>>(
                std::move(annotator));
}

void ThreadScheduler::WatchdogLoop() {
  std::vector<int64_t> last_drained(watched_.size(), -1);
  std::vector<int> stalled_for(watched_.size(), 0);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mutex_);
      watchdog_cv_.wait_for(lock, options_.watchdog_interval, [&] {
        return watchdog_stop_.load(std::memory_order_acquire);
      });
    }
    if (watchdog_stop_.load(std::memory_order_acquire)) return;
    bool any_stalled = false;
    for (size_t i = 0; i < watched_.size(); ++i) {
      Partition* p = watched_[i];
      const int64_t drained = p->drained();
      const bool progressed = drained != last_drained[i];
      last_drained[i] = drained;
      // A stall is "has work, made none of it disappear": partitions that
      // are done, or empty-and-waiting on open inputs, are merely idle.
      if (progressed || p->Done() || p->QueuedElements() == 0) {
        stalled_for[i] = 0;
        continue;
      }
      if (++stalled_for[i] >= options_.watchdog_stall_intervals) {
        any_stalled = true;
      }
    }
    if (any_stalled) {
      std::string report = DescribePartitions(watched_);
      stall_events_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(watchdog_mutex_);
        // Append the controller annotation (current ladder rung, last
        // action) so a stuck run shows what the controller last did.
        if (stall_annotator_ != nullptr) {
          const std::string note = (*stall_annotator_)();
          if (!note.empty()) report += "  " + note + "\n";
        }
        last_stall_report_ = report;
      }
      LOG(WARNING) << "watchdog: partition(s) with queued work made no "
                      "drain progress for "
                   << options_.watchdog_stall_intervals
                   << " interval(s):\n"
                   << report;
    }
  }
}

void ThreadScheduler::Register(Partition* partition, double priority) {
  std::lock_guard<std::mutex> lock(mutex_);
  Info& info = infos_[partition];
  info.priority = priority;
}

void ThreadScheduler::Unregister(Partition* partition) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = infos_.find(partition);
  if (it == infos_.end()) return;
  CHECK(!it->second.running) << "unregistering a running partition";
  CHECK(!it->second.waiting) << "unregistering a waiting partition";
  infos_.erase(it);
}

void ThreadScheduler::SetPriority(Partition* partition, double priority) {
  std::lock_guard<std::mutex> lock(mutex_);
  infos_[partition].priority = priority;
  Rebalance(Now());
}

double ThreadScheduler::PriorityOf(const Partition* partition) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = infos_.find(partition);
  return it == infos_.end() ? 0.0 : it->second.priority;
}

double ThreadScheduler::EffectivePriority(const Info& info,
                                          TimePoint now) const {
  double p = info.priority;
  if (info.waiting && options_.aging_per_second > 0.0) {
    p += options_.aging_per_second * ToSeconds(now - info.wait_start);
  }
  return p;
}

void ThreadScheduler::Rebalance(TimePoint now) {
  // Grant free slots to the best waiters.
  while (running_count_ < max_running_ && waiting_count_ > 0) {
    Info* best = nullptr;
    double best_priority = -std::numeric_limits<double>::infinity();
    for (auto& [partition, info] : infos_) {
      (void)partition;
      if (!info.waiting) continue;
      const double p = EffectivePriority(info, now);
      if (p > best_priority) {
        best_priority = p;
        best = &info;
      }
    }
    if (best == nullptr) break;
    best->waiting = false;
    best->running = true;
    if (best->preempt) preempt_pending_.fetch_sub(1, std::memory_order_relaxed);
    best->preempt = false;
    best->grant_time = now;
    --waiting_count_;
    waiting_count_fast_.store(waiting_count_, std::memory_order_relaxed);
    ++running_count_;
  }
  // No free slot left: preempt the weakest runner if a waiter outranks it.
  if (waiting_count_ > 0 && running_count_ >= max_running_) {
    double best_wait = -std::numeric_limits<double>::infinity();
    for (const auto& [partition, info] : infos_) {
      (void)partition;
      if (info.waiting) {
        best_wait = std::max(best_wait, EffectivePriority(info, now));
      }
    }
    Info* weakest = nullptr;
    double weakest_priority = std::numeric_limits<double>::infinity();
    for (auto& [partition, info] : infos_) {
      (void)partition;
      if (info.running && info.priority < weakest_priority) {
        weakest_priority = info.priority;
        weakest = &info;
      }
    }
    if (weakest != nullptr && best_wait > weakest_priority &&
        !weakest->preempt) {
      weakest->preempt = true;
      preempt_pending_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Wake any waiter whose grant just came through. Called with mutex_
  // held; the woken threads re-check their predicate under the lock.
  cv_.notify_all();
}

void ThreadScheduler::Acquire(Partition* partition) {
  std::unique_lock<std::mutex> lock(mutex_);
  Info& info = infos_[partition];
  CHECK(!info.running && !info.waiting)
      << partition->name() << " double-acquire";
  info.waiting = true;
  info.wait_start = Now();
  ++waiting_count_;
  waiting_count_fast_.store(waiting_count_, std::memory_order_relaxed);
  Rebalance(Now());
  cv_.wait(lock, [&] { return info.running; });
}

void ThreadScheduler::Release(Partition* partition) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = infos_.find(partition);
  CHECK(it != infos_.end() && it->second.running)
      << partition->name() << " release without acquire";
  it->second.running = false;
  if (it->second.preempt) {
    preempt_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  it->second.preempt = false;
  --running_count_;
  Rebalance(Now());
}

bool ThreadScheduler::ShouldYield(const Partition* partition) const {
  // Fast path: with no waiter and no raised preempt flag nothing can
  // demand a yield, so skip the mutex entirely. This is the steady state
  // whenever partitions <= execution slots, and it is polled once per
  // drain batch by every running partition.
  if (waiting_count_fast_.load(std::memory_order_relaxed) == 0 &&
      preempt_pending_.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = infos_.find(partition);
  if (it == infos_.end() || !it->second.running) return false;
  if (it->second.preempt) return true;
  if (waiting_count_ == 0) return false;
  return Now() >= it->second.grant_time + options_.quantum;
}

int ThreadScheduler::running_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_count_;
}

int ThreadScheduler::waiting_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiting_count_;
}

}  // namespace flexstream
