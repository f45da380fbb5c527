// Bounded-queue overload policies (QueueOp::SetBound) and their engine
// wiring: kBlock backpressure with the consumer-side space wakeup, timed
// overrun, both shed policies with exact drop accounting, and the
// end-to-end invariant dropped + delivered == fed on an overloaded HMTS
// configuration.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "queue/queue_op.h"
#include "stats/report.h"
#include "test_util.h"
#include "tuple/batch_pool.h"
#include "tuple/columnar_batch.h"
#include "tuple/schema.h"
#include "util/clock.h"

namespace flexstream {
namespace {

using testutil::QueueRig;

// Satellite regression: a producer parked on a full kBlock queue must be
// woken by the consumer's drain (NotifySpaceFreed), including on the SPSC
// ring + spillover path. A tiny ring forces spillover traffic while the
// bound is what actually stops the producer.
TEST(OverloadTest, BlockedProducerWokenByConsumerDrain) {
  QueueRig rig(/*ring_capacity=*/2);
  rig.queue->SetSingleProducer(true);
  rig.queue->SetBound(4, OverloadPolicy::kBlock, std::chrono::seconds(30));

  constexpr int kFeed = 12;
  std::atomic<bool> fed{false};
  std::thread producer([&] {
    for (int i = 0; i < kFeed; ++i) {
      rig.src->Push(Tuple::OfInt(i, i));
    }
    rig.src->Close(kFeed);
    fed.store(true, std::memory_order_release);
  });

  // The producer must hit the bound and park: 4 queued, the 5th waiting.
  const TimePoint park_deadline = Now() + std::chrono::seconds(10);
  while (rig.queue->block_waits() == 0 && Now() < park_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(rig.queue->block_waits(), 1);
  EXPECT_FALSE(fed.load(std::memory_order_acquire));
  EXPECT_EQ(rig.queue->Size(), 4u);

  // Drain in small batches; every freed slot must wake the producer again
  // (if the wakeup were lost, the producer would sit out its full 30s
  // timeout and this loop would never see new elements).
  size_t drained = 0;
  const TimePoint drain_deadline = Now() + std::chrono::seconds(20);
  while (!rig.queue->Exhausted() && Now() < drain_deadline) {
    const size_t got = rig.queue->DrainBatch(3);
    drained += got;
    if (got == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();

  EXPECT_TRUE(fed.load(std::memory_order_acquire));
  EXPECT_TRUE(rig.queue->Exhausted());
  EXPECT_EQ(drained, static_cast<size_t>(kFeed));
  ASSERT_EQ(rig.sink->size(), static_cast<size_t>(kFeed));
  EXPECT_EQ(rig.queue->dropped(), 0);
  EXPECT_EQ(rig.queue->block_timeouts(), 0);
  // FIFO must survive the park/wake cycles.
  const std::vector<Tuple> results = rig.sink->Results();
  for (int i = 0; i < kFeed; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].IntAt(0), i);
  }
}

// A kBlock wait that expires overruns the bound (counted) instead of
// dropping or deadlocking: with nobody draining, every blocked push still
// lands in the queue.
TEST(OverloadTest, BlockTimeoutOverrunsBound) {
  QueueRig rig;
  rig.queue->SetBound(2, OverloadPolicy::kBlock,
                      std::chrono::milliseconds(20));

  for (int i = 0; i < 5; ++i) rig.src->Push(Tuple::OfInt(i, i));
  rig.src->Close(5);

  EXPECT_EQ(rig.queue->Size(), 5u);
  EXPECT_EQ(rig.queue->dropped(), 0);
  EXPECT_EQ(rig.queue->block_waits(), 3);
  EXPECT_EQ(rig.queue->block_timeouts(), 3);

  while (!rig.queue->Exhausted()) rig.queue->DrainBatch(16);
  EXPECT_EQ(rig.sink->size(), 5u);
}

// kShedNewest drops the incoming element: the oldest `bound` elements
// survive, and EOS still propagates.
TEST(OverloadTest, ShedNewestDropsIncoming) {
  QueueRig rig;
  rig.queue->SetBound(3, OverloadPolicy::kShedNewest);

  for (int i = 0; i < 10; ++i) rig.src->Push(Tuple::OfInt(i, i));
  rig.src->Close(10);

  EXPECT_EQ(rig.queue->Size(), 3u);
  EXPECT_EQ(rig.queue->dropped_newest(), 7);
  EXPECT_EQ(rig.queue->dropped_oldest(), 0);

  while (!rig.queue->Exhausted()) rig.queue->DrainBatch(16);
  const std::vector<Tuple> results = rig.sink->Results();
  ASSERT_EQ(results.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].IntAt(0), i);
  }
}

// kShedOldest drops from the front to admit the newcomer — and drops the
// ring, since only the consumer may touch the ring's head.
TEST(OverloadTest, ShedOldestKeepsNewest) {
  QueueRig rig;
  rig.queue->SetSingleProducer(true);
  rig.queue->SetBound(3, OverloadPolicy::kShedOldest);
  EXPECT_FALSE(rig.queue->has_ring());

  for (int i = 0; i < 10; ++i) rig.src->Push(Tuple::OfInt(i, i));
  rig.src->Close(10);

  EXPECT_EQ(rig.queue->Size(), 3u);
  EXPECT_EQ(rig.queue->dropped_oldest(), 7);
  EXPECT_EQ(rig.queue->dropped_newest(), 0);

  while (!rig.queue->Exhausted()) rig.queue->DrainBatch(16);
  const std::vector<Tuple> results = rig.sink->Results();
  ASSERT_EQ(results.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].IntAt(0), 7 + i);
  }
}

// EOS is exempt from shedding: even a full queue accepts and forwards it.
TEST(OverloadTest, EosNeverShed) {
  QueueRig rig;
  rig.queue->SetBound(2, OverloadPolicy::kShedNewest);
  for (int i = 0; i < 6; ++i) rig.src->Push(Tuple::OfInt(i, i));
  rig.src->Close(6);
  EXPECT_TRUE(rig.queue->InputClosed());
  while (!rig.queue->Exhausted()) rig.queue->DrainBatch(16);
  EXPECT_EQ(rig.sink->size(), 2u);
}

// -- Bulk admission of batches into a bounded queue ------------------------
//
// A batch bigger than the queue's free space, with no consumer draining:
// one step admits what fits, and the policy settles the rest. The batch
// arrives either as rows (ReceiveBatch) or as a columnar batch, which a
// bounded queue materializes at its door.

/// Rows i = 0..n-1 as Tuple::OfInt(i, i).
TupleBatch Rows(int n) {
  TupleBatch rows;
  for (int i = 0; i < n; ++i) rows.PushBack(Tuple::OfInt(i, i));
  return rows;
}

class BoundedBatchTest : public ::testing::TestWithParam<bool> {
 protected:
  /// Delivers rows 0..n-1 to the queue as one batch of the parameter's
  /// kind.
  static void Deliver(QueueOp* queue, int n) {
    TupleBatch rows = Rows(n);
    if (!GetParam()) {
      queue->ReceiveBatch(std::move(rows), 0);
      return;
    }
    ColumnarBatchPtr batch =
        columnar::AcquireBatch(MakeSchema({Value::Type::kInt64}));
    for (const Tuple& row : rows) ASSERT_TRUE(batch->AppendTuple(row));
    queue->ReceiveColumnar(std::move(batch), 0);
  }

  /// Drains until `n` elements reached the sink (or a deadline passes).
  static void DrainUntil(QueueRig* rig, size_t n) {
    const TimePoint deadline = Now() + std::chrono::seconds(20);
    while (rig->sink->size() < n && Now() < deadline) {
      if (rig->queue->DrainBatch(3) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
};

TEST_P(BoundedBatchTest, ShedNewestAdmitsFreeAndDropsTheRest) {
  QueueRig rig;
  rig.queue->SetSingleProducer(true);
  rig.queue->SetBound(8, OverloadPolicy::kShedNewest);
  int wakeups = 0;
  rig.queue->SetEnqueueListener([&wakeups] { ++wakeups; });
  rig.queue->Receive(Tuple::OfInt(-1, 0), 0);  // 7 slots left

  Deliver(rig.queue, 20);
  EXPECT_EQ(rig.queue->Size(), 8u);
  EXPECT_EQ(rig.queue->PeakSize(), 8u);
  EXPECT_EQ(rig.queue->dropped_newest(), 13);
  EXPECT_EQ(rig.queue->dropped_oldest(), 0);
  EXPECT_EQ(wakeups, 1) << "the batch joined a non-empty queue";

  DrainUntil(&rig, 8);
  const std::vector<Tuple> results = rig.sink->Results();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i].IntAt(0), i - 1);
}

TEST_P(BoundedBatchTest, ShedOldestKeepsTheNewestOfTheBatch) {
  QueueRig rig;
  rig.queue->SetBound(8, OverloadPolicy::kShedOldest);
  rig.queue->Receive(Tuple::OfInt(-1, 0), 0);

  Deliver(rig.queue, 20);
  EXPECT_EQ(rig.queue->Size(), 8u);
  EXPECT_EQ(rig.queue->PeakSize(), 8u);
  EXPECT_EQ(rig.queue->dropped_oldest(), 13);
  EXPECT_EQ(rig.queue->dropped_newest(), 0);

  DrainUntil(&rig, 8);
  const std::vector<Tuple> results = rig.sink->Results();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i].IntAt(0), 12 + i);
}

// A batch bigger than the whole bound into an empty kShedOldest queue: its
// own first elements are shed without ever being counted, so the count
// goes 0 -> 8 in one step and the consumer is woken exactly once.
TEST_P(BoundedBatchTest, ShedOldestIntoAnEmptyQueueWakesOnce) {
  QueueRig rig;
  rig.queue->SetBound(8, OverloadPolicy::kShedOldest);
  int wakeups = 0;
  rig.queue->SetEnqueueListener([&wakeups] { ++wakeups; });

  Deliver(rig.queue, 20);
  EXPECT_EQ(wakeups, 1);
  EXPECT_EQ(rig.queue->Size(), 8u);
  EXPECT_EQ(rig.queue->PeakSize(), 8u);
  EXPECT_EQ(rig.queue->dropped_oldest(), 12);
  EXPECT_EQ(rig.queue->dropped_newest(), 0);

  DrainUntil(&rig, 8);
  const std::vector<Tuple> results = rig.sink->Results();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i].IntAt(0), 12 + i);
}

// A live flip to kShedNewest while a producer is parked on the full queue:
// the elements it held meet the new policy and are shed, so the bound
// holds and every missing element is counted.
TEST_P(BoundedBatchTest, PolicyFlipShedsWhatTheParkedProducerHeld) {
  QueueRig rig;
  rig.queue->SetSingleProducer(true);
  rig.queue->SetBound(8, OverloadPolicy::kBlock, std::chrono::seconds(30));

  std::thread producer([&] { Deliver(rig.queue, 20); });
  const TimePoint park_deadline = Now() + std::chrono::seconds(10);
  while (rig.queue->block_waits() == 0 && Now() < park_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(rig.queue->block_waits(), 1);
  ASSERT_TRUE(rig.queue->SetOverloadPolicyLive(OverloadPolicy::kShedNewest)
                  .ok());
  producer.join();

  EXPECT_EQ(rig.queue->Size(), 8u);
  EXPECT_EQ(rig.queue->PeakSize(), 8u);
  EXPECT_EQ(rig.queue->dropped_newest(), 12);
  EXPECT_EQ(rig.queue->block_timeouts(), 0);
  DrainUntil(&rig, 8);
  const std::vector<Tuple> results = rig.sink->Results();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

TEST_P(BoundedBatchTest, BlockAdmitsFreeAndParksForTheRest) {
  QueueRig rig;
  rig.queue->SetSingleProducer(true);
  rig.queue->SetBound(8, OverloadPolicy::kBlock, std::chrono::seconds(30));

  std::atomic<bool> delivered{false};
  std::thread producer([&] {
    Deliver(rig.queue, 20);
    delivered.store(true);
  });
  const TimePoint park_deadline = Now() + std::chrono::seconds(10);
  while (rig.queue->block_waits() == 0 && Now() < park_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(rig.queue->block_waits(), 1);
  EXPECT_EQ(rig.queue->Size(), 8u) << "the first step admits what fits";
  EXPECT_FALSE(delivered.load());

  DrainUntil(&rig, 20);
  producer.join();
  EXPECT_TRUE(delivered.load());
  EXPECT_LE(rig.queue->PeakSize(), 8u);
  EXPECT_EQ(rig.queue->dropped(), 0);
  EXPECT_EQ(rig.queue->block_timeouts(), 0);
  const std::vector<Tuple> results = rig.sink->Results();
  ASSERT_EQ(results.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

INSTANTIATE_TEST_SUITE_P(Delivery, BoundedBatchTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Columnar" : "Rows";
                         });

// -- End-to-end overload accounting (two-partition HMTS) -------------------
//
// Two independent pass-through chains (selectivity 1, deliberately slow
// consumers) overload their bounded queues. Because nothing filters or
// duplicates, every fed element is either delivered to a sink or counted
// in exactly one queue's drop counters: dropped + delivered == fed, to the
// element.

struct OverloadRunResult {
  int64_t fed = 0;
  int64_t delivered = 0;
  int64_t dropped = 0;
  int64_t block_waits = 0;
  size_t partitions = 0;
  size_t bounded_queues = 0;
};

OverloadRunResult RunHmtsOverload(OverloadPolicy policy) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  auto identity = [](const Tuple& t) { return t; };
  Source* src_a = qb.AddSource("src_a");
  MapOp* slow_a = qb.Map(src_a, "slow_a", identity);
  slow_a->SetSimulatedCostMicros(15.0);
  CollectingSink* sink_a = qb.CollectSink(slow_a, "sink_a");
  Source* src_b = qb.AddSource("src_b");
  MapOp* slow_b = qb.Map(src_b, "slow_b", identity);
  slow_b->SetSimulatedCostMicros(15.0);
  CollectingSink* sink_b = qb.CollectSink(slow_b, "sink_b");

  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kHmts;
  options.queue_max_elements = 8;
  options.overload_policy = policy;
  EXPECT_TRUE(engine.Configure(options).ok());
  EXPECT_TRUE(engine.Start().ok());

  OverloadRunResult r;
  r.partitions = engine.hmts()->Partitions().size();
  constexpr int kFeedPerSource = 1000;
  for (int i = 0; i < kFeedPerSource; ++i) {
    src_a->Push(Tuple::OfInt(i, i));
    src_b->Push(Tuple::OfInt(i, i));
  }
  src_a->Close(kFeedPerSource);
  src_b->Close(kFeedPerSource);
  r.fed = 2 * kFeedPerSource;

  EXPECT_TRUE(engine.WaitUntilFinishedFor(std::chrono::seconds(60)));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();

  r.delivered = static_cast<int64_t>(sink_a->size() + sink_b->size());
  r.dropped = engine.DroppedElements();
  for (QueueOp* q : engine.queues()) {
    r.block_waits += q->block_waits();
    if (q->bounded()) ++r.bounded_queues;
  }
  // Satellite: the resilience report covers exactly the bounded queues.
  EXPECT_EQ(BuildResilienceTable(graph).row_count(), r.bounded_queues);
  return r;
}

TEST(OverloadTest, HmtsShedNewestAccountsExactly) {
  const OverloadRunResult r = RunHmtsOverload(OverloadPolicy::kShedNewest);
  EXPECT_GE(r.partitions, 2u);
  EXPECT_GE(r.bounded_queues, 2u);
  EXPECT_GT(r.dropped, 0);
  EXPECT_EQ(r.dropped + r.delivered, r.fed);
}

TEST(OverloadTest, HmtsShedOldestAccountsExactly) {
  const OverloadRunResult r = RunHmtsOverload(OverloadPolicy::kShedOldest);
  EXPECT_GE(r.partitions, 2u);
  EXPECT_GT(r.dropped, 0);
  EXPECT_EQ(r.dropped + r.delivered, r.fed);
}

TEST(OverloadTest, HmtsBlockDeliversEverything) {
  const OverloadRunResult r = RunHmtsOverload(OverloadPolicy::kBlock);
  EXPECT_GE(r.partitions, 2u);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.delivered, r.fed);
  // The feeders must actually have been backpressured for this to test
  // anything: bound 8 against a 15us/element consumer guarantees parks.
  EXPECT_GT(r.block_waits, 0);
}

}  // namespace
}  // namespace flexstream
