// The hybrid multi-threaded scheduling executor — the paper's primary
// contribution (Section 4.2).
//
// HMTS "offers to dynamically adapt the number of threads and to assign
// them flexibly to partitions of the query graph", scheduling "each
// partition with respect to a separate strategy" under a level-3
// ThreadScheduler. The executor owns one level-2 Partition per partition
// spec, registers each with the TS at its configured priority, and
// supports runtime adjustments: priorities can be changed while running,
// and the whole executor can be stopped and rebuilt with a different
// partitioning ("we can seamlessly switch between these approaches during
// runtime", Section 4.2.2) — api/stream_engine.h drives that switching.

#ifndef FLEXSTREAM_CORE_HMTS_H_
#define FLEXSTREAM_CORE_HMTS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/thread_scheduler.h"
#include "sched/partition.h"

namespace flexstream {

class HmtsExecutor {
 public:
  struct PartitionSpec {
    std::string name;
    std::vector<QueueOp*> queues;
    StrategyKind strategy = StrategyKind::kFifo;
    double priority = 0.0;
  };

  /// With `take_slots` false the partitions run unscheduled by the TS
  /// (GTS/OTS: one OS-scheduled thread each) and priorities are inert.
  HmtsExecutor(std::vector<PartitionSpec> specs,
               ThreadScheduler::Options ts_options = {},
               Partition::Options partition_options = {},
               bool take_slots = true);
  ~HmtsExecutor();

  /// Starts all partition workers; when the ThreadScheduler options carry
  /// a nonzero watchdog_interval, also starts the no-progress watchdog
  /// over the partitions. Restartable after RequestStop + Join.
  void Start();
  void RequestStop();
  /// Joins every worker; the executor may then be started again.
  void Join();
  bool Done() const;

  size_t partition_count() const { return partitions_.size(); }
  Partition& partition(size_t i) { return *partitions_[i]; }
  ThreadScheduler& thread_scheduler() { return ts_; }

  /// Attaches the run's failure collector to every partition (each run
  /// loop then exits early once any operator fails). Call before Start.
  void SetRunStatus(RunStatus* run_status);

  /// Raw partition pointers, for diagnostics (DescribePartitions).
  std::vector<Partition*> Partitions();

  /// Runtime priority adjustment (Section 4.2.2: priorities "can be
  /// adapted during runtime").
  void SetPriority(size_t i, double priority);

 private:
  ThreadScheduler ts_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  bool started_ = false;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_CORE_HMTS_H_
