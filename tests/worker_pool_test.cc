// The process-wide worker pool (sched/worker_pool.h): engine runs and
// recovery rebuilds borrow parked threads instead of creating them, a
// reused worker starts each job with a clean thread-local engine context,
// and no more than kMaxIdleWorkers stay parked.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "graph/query_graph.h"
#include "operators/operator.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "queue/queue_op.h"
#include "sched/worker_pool.h"
#include "testing/chaos.h"

namespace flexstream {
namespace {

constexpr auto kWait = std::chrono::seconds(60);

struct Chain {
  std::unique_ptr<QueryGraph> graph = std::make_unique<QueryGraph>();
  Source* source = nullptr;
  CollectingSink* sink = nullptr;

  Chain() {
    QueryBuilder qb(graph.get());
    source = qb.AddSource("src");
    Selection* sel = qb.Select(
        source, "sel", [](const Tuple& t) { return t.IntAt(0) % 2 == 0; });
    Selection* sel2 =
        qb.Select(sel, "sel2", [](const Tuple&) { return true; });
    sink = qb.CollectSink(sel2, "sink");
  }
};

EngineOptions OtsWithWatchdog() {
  EngineOptions options;
  // One partition per queue plus the watchdog: several pooled workers per
  // Start.
  options.mode = ExecutionMode::kOts;
  options.ts.watchdog_interval = std::chrono::seconds(5);
  return options;
}

/// Runs the chain once under `options`, optionally killing "sel" once
/// mid-run, and returns the engine's completed recoveries.
int RunChain(const EngineOptions& options, bool kill = false) {
  Chain chain;
  StreamEngine engine(chain.graph.get());
  EXPECT_TRUE(engine.Configure(options).ok());
  ChaosOptions chaos_options;
  chaos_options.kill_operator = "sel";
  chaos_options.kill_after = 130;
  ChaosInjector chaos(chaos_options);
  if (kill) chaos.Arm(chain.graph.get(), engine.queues());
  EXPECT_TRUE(engine.Start().ok());
  for (int i = 0; i < 400; ++i) chain.source->Push(Tuple::OfInt(i, i + 1));
  chain.source->Close(400);
  EXPECT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  EXPECT_EQ(chain.sink->size(), 200u);
  return engine.recovery() == nullptr
             ? 0
             : engine.recovery()->completed_recoveries();
}

TEST(WorkerPoolTest, BackToBackEnginesReuseThreads) {
  RunChain(OtsWithWatchdog());  // warms the pool
  const int64_t created = WorkerPool::threads_created();
  EXPECT_GT(created, 0);
  RunChain(OtsWithWatchdog());
  RunChain(OtsWithWatchdog());
  EXPECT_EQ(WorkerPool::threads_created(), created)
      << "a second engine run created OS threads instead of reusing them";
}

TEST(WorkerPoolTest, RecoveryRebuildReusesWorkers) {
  EngineOptions options = OtsWithWatchdog();
  options.checkpoint_epoch_interval = 25;
  RunChain(options);  // warms the pool for this shape
  const int64_t created = WorkerPool::threads_created();
  const int recoveries = RunChain(options, /*kill=*/true);
  EXPECT_EQ(recoveries, 1);
  EXPECT_EQ(WorkerPool::threads_created(), created)
      << "the recovery rebuild created OS threads instead of reusing them";
}

/// Exposes the protected delivery-sender setter to the test.
class SenderProbe : public Operator {
 public:
  using Operator::SetDeliverySender;
};

TEST(WorkerPoolTest, ReusedWorkerStartsWithClearThreadLocals) {
  int token = 0;
  std::thread::id first_thread;
  PooledThread first([&] {
    first_thread = std::this_thread::get_id();
    // Leave all three thread-locals set, as a job that forgot to clear
    // them would.
    QueueOp::SetCurrentDrainContext(&token);
    QueueOp::SetCurrentSlotYielder(
        reinterpret_cast<QueueOp::SlotYielder*>(&token));
    SenderProbe::SetDeliverySender(reinterpret_cast<const Node*>(&token));
  });
  first.join();

  std::thread::id second_thread;
  const void* drain_context = &token;
  const void* yielder = &token;
  const void* sender = &token;
  PooledThread second([&] {
    second_thread = std::this_thread::get_id();
    drain_context = QueueOp::CurrentDrainContext();
    yielder = QueueOp::CurrentSlotYielder();
    sender = Operator::CurrentDeliverySender();
  });
  second.join();

  EXPECT_EQ(second_thread, first_thread) << "the parked worker was not reused";
  EXPECT_EQ(drain_context, nullptr);
  EXPECT_EQ(yielder, nullptr);
  EXPECT_EQ(sender, nullptr);
}

TEST(WorkerPoolTest, IdleCapHolds) {
  // More concurrent jobs than the cap: every one needs its own worker, so
  // the pool grows past the cap while they run and must shed the surplus
  // when they finish.
  const size_t jobs = WorkerPool::kMaxIdleWorkers + 8;
  std::mutex mutex;
  std::condition_variable cv;
  size_t started = 0;
  bool release = false;
  std::vector<PooledThread> threads;
  for (size_t i = 0; i < jobs; ++i) {
    threads.emplace_back([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started == jobs; });
    release = true;
  }
  cv.notify_all();
  for (PooledThread& t : threads) t.join();
  EXPECT_LE(WorkerPool::idle_workers(), WorkerPool::kMaxIdleWorkers);

  // The parked workers serve the next wave without creating threads.
  const int64_t created = WorkerPool::threads_created();
  std::vector<PooledThread> again;
  std::atomic<int> ran{0};
  for (size_t i = 0; i < 8; ++i) again.emplace_back([&] { ++ran; });
  for (PooledThread& t : again) t.join();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(WorkerPool::threads_created(), created);
}

}  // namespace
}  // namespace flexstream
