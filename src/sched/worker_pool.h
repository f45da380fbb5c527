// A process-wide pool of parked worker threads with join semantics.
//
// Partition run loops (sched/partition.h) and the level-3 watchdog
// (core/thread_scheduler.h) live exactly as long as one engine run, and a
// recovery rebuild starts them again. Creating an OS thread for each of
// them made thread creation the largest part of StreamEngine::Start.
// Instead they borrow a parked worker: PooledThread hands its function to
// an idle worker (creating a thread only when none is parked) and join()
// waits for that function to return, like std::thread::join. A worker that
// finishes parks again unless kMaxIdleWorkers are already parked, in which
// case its thread exits. Pipeline stages on persistent workers follow the
// same idea (Pipeflow, PAPERS.md).
//
// Every job starts with the engine's thread-local execution context clear
// (QueueOp drain context and slot yielder, Operator delivery sender), so a
// reused worker behaves like a fresh thread.

#ifndef FLEXSTREAM_SCHED_WORKER_POOL_H_
#define FLEXSTREAM_SCHED_WORKER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace flexstream {

struct PoolJob;

class PooledThread {
 public:
  PooledThread() = default;

  /// Runs `fn` on a parked pool worker, creating an OS thread only when no
  /// worker is parked.
  explicit PooledThread(std::function<void()> fn);

  PooledThread(PooledThread&& other) noexcept = default;
  /// Like std::thread: assigning over a joinable handle is a bug.
  PooledThread& operator=(PooledThread&& other) noexcept;

  /// Like std::thread: destroying a joinable handle is a bug.
  ~PooledThread();

  PooledThread(const PooledThread&) = delete;
  PooledThread& operator=(const PooledThread&) = delete;

  /// True between construction with a function and join().
  bool joinable() const { return job_ != nullptr; }

  /// Blocks until the function has returned and its captures are
  /// destroyed.
  void join();

 private:
  std::shared_ptr<PoolJob> job_;
};

/// Counters of the process-wide pool.
class WorkerPool {
 public:
  /// Most workers kept parked. A worker finishing its job while this many
  /// are parked exits, so a large OTS run leaves at most this many idle
  /// threads behind.
  static constexpr size_t kMaxIdleWorkers = 64;

  /// OS threads the pool has created since process start.
  static int64_t threads_created();

  /// Workers parked right now.
  static size_t idle_workers();
};

}  // namespace flexstream

#endif  // FLEXSTREAM_SCHED_WORKER_POOL_H_
