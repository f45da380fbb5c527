// Stress tests for the QueueOp SPSC fast path: a producer and a consumer
// hammering one queue through mode selection, ring-overflow spillover and
// EOS. Run these under ThreadSanitizer:
//
//   cmake -B build-tsan -S . -DFLEXSTREAM_SANITIZE=thread
//   cmake --build build-tsan -j
//   ctest --test-dir build-tsan --output-on-failure -R 'QueueOp|SpscRing|Partition|ThreadScheduler|QueueSpscStress'

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "graph/query_graph.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "queue/queue_op.h"
#include "sched/partition.h"
#include "sched/strategy.h"
#include "test_util.h"
#include "util/clock.h"

namespace flexstream {
namespace {

TEST(QueueSpscStressTest, ProducerConsumerThroughTinyRing) {
  // Tiny ring so the stress constantly crosses the overflow boundary in
  // both directions.
  testutil::QueueRig rig(/*ring_capacity=*/16);
  Source* src = rig.src;
  QueueOp* q = rig.queue;
  CollectingSink* sink = rig.sink;

  // One producing source: the queue gets its ring.
  q->SetSingleProducer(true);
  ASSERT_TRUE(q->has_ring());

  constexpr int kCount = 50'000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      // String payload: the move path and the slot reset matter here.
      src->Push(Tuple({Value(static_cast<int64_t>(i)),
                       Value(std::string("payload-") + std::to_string(i))},
                      i));
    }
    src->Close(kCount);
  });
  while (!q->Exhausted()) {
    q->DrainBatch(64);
  }
  producer.join();

  EXPECT_TRUE(sink->closed());
  auto results = sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(results[i].IntAt(0), i) << "FIFO violated at " << i;
    ASSERT_EQ(results[i].StringAt(1),
              std::string("payload-") + std::to_string(i));
  }
  EXPECT_GT(q->ring_pushes(), 0) << "fast path never taken";
  EXPECT_GT(q->locked_pushes(), 0) << "spillover never exercised";
}

TEST(QueueSpscStressTest, PartitionDrivenConsumerWithCoalescedWakeups) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  QueueOp* q = g.Add<QueueOp>("q", /*ring_capacity=*/64);
  CountingSink* sink = g.Add<CountingSink>("sink");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  q->SetSingleProducer(true);

  Partition partition("p0", {q}, MakeStrategy(StrategyKind::kFifo));
  partition.Start();

  constexpr int kCount = 100'000;
  for (int i = 0; i < kCount; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(kCount);

  sink->WaitUntilClosed();
  partition.RequestStop();
  partition.Join();

  EXPECT_EQ(sink->count(), kCount);
  EXPECT_EQ(partition.drained(), kCount);
  EXPECT_TRUE(q->Exhausted());
  // Coalescing: the queue notified far less often than once per tuple
  // (only on empty -> non-empty transitions and EOS). The exact number is
  // timing-dependent; the bound is generous but would catch a regression
  // to per-tuple notification.
  EXPECT_LT(q->notifications(), kCount / 2)
      << "wakeups should be O(batches), not O(tuples)";
}

// A batch bigger than the ring's free space is published in two parts: a
// ring run and a locked spill. The consumer can claim the ring run before
// the spill lands; if both parts were counted queued together, the count
// would then be non-zero on an empty queue and the spill's empty ->
// non-empty wakeup would be skipped, stranding it until the idle poll.
// The poll here is far longer than the test's deadline. The producer
// sends two batches back to back, the second landing while the consumer
// drains the first (the merge path, holding the queue lock the spill
// needs), then waits for both to drain.
TEST(QueueSpscStressTest, SpilledBatchesNeverStrandTheConsumer) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  QueueOp* q = g.Add<QueueOp>("q", /*ring_capacity=*/16);
  CountingSink* sink = g.Add<CountingSink>("sink");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  q->SetSingleProducer(true);
  q->SetBatchDelivery(true);
  // The linger clock never advances: a slow fill (a loaded host, TSan)
  // must not flush part of a batch early, or the check below would wait
  // for elements still pending in the source.
  VirtualClock linger_clock;
  src->SetLingerClock(&linger_clock);
  src->SetEmitBatchSize(24);  // every batch overflows the 16-slot ring

  Partition::Options options;
  options.idle_poll = std::chrono::seconds(60);
  Partition partition("p0", {q}, MakeStrategy(StrategyKind::kFifo), options);
  partition.Start();

  constexpr int kBatches = 20000;
  bool stranded = false;
  for (int b = 0; b < kBatches && !stranded; ++b) {
    for (int i = 0; i < 24; ++i) src->Push(Tuple::OfInt(b * 24 + i, b));
    if (b % 2 == 0) continue;
    const TimePoint deadline = Now() + std::chrono::seconds(5);
    while (sink->count() < (b + 1) * 24 && Now() < deadline) {
      std::this_thread::yield();
    }
    stranded = sink->count() < (b + 1) * 24;
  }
  src->Close(kBatches);
  EXPECT_FALSE(stranded) << "a spilled batch waited for the idle poll";
  ASSERT_TRUE(sink->WaitUntilClosedFor(std::chrono::seconds(90)));
  partition.RequestStop();
  partition.Join();
  EXPECT_EQ(sink->count(), kBatches * 24);
  EXPECT_GT(q->locked_pushes(), 0) << "no batch spilled past the ring";
}

TEST(QueueSpscStressTest, RinglessQueueTakesConcurrentProducersUnderLock) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  QueueOp* q = g.Add<QueueOp>("q", /*ring_capacity=*/16);
  CountingSink* sink = g.Add<CountingSink>("sink");
  ASSERT_TRUE(g.Connect(a, q).ok());
  ASSERT_TRUE(g.Connect(b, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());

  // Two producing sources: the queue keeps its default, no ring, so every
  // push takes the locked path.
  ASSERT_FALSE(q->has_ring());

  constexpr int kPerProducer = 30'000;
  std::thread ta([&] {
    for (int i = 0; i < kPerProducer; ++i) a->Push(Tuple::OfInt(i, i));
    a->Close(kPerProducer);
  });
  std::thread tb([&] {
    for (int i = 0; i < kPerProducer; ++i) b->Push(Tuple::OfInt(i, i));
    b->Close(kPerProducer);
  });
  while (!q->Exhausted()) {
    q->DrainBatch(256);
  }
  ta.join();
  tb.join();
  EXPECT_EQ(sink->count(), 2 * kPerProducer);
  EXPECT_TRUE(sink->closed());
  EXPECT_EQ(q->ring_pushes(), 0) << "a ring-less queue must not touch a ring";
  // Every data push plus the one EOS append is a locked push.
  EXPECT_EQ(q->locked_pushes(), 2 * kPerProducer + 1);
}

}  // namespace
}  // namespace flexstream
