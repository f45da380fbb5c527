// Regression tests for the SPSC ring-full spillover path (satellite of
// the differential tier): with a tiny ring every burst overflows into the
// locked spill deque, and the consumer's seq-merge drain must interleave
// ring and spill elements back into exact arrival (FIFO) order.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "test_util.h"

namespace flexstream {
namespace {

TEST(QueueSpillTest, SeqMergeDrainRestoresFifoAcrossSpillBoundary) {
  // No consumer while pushing: a 2-slot ring forces everything past the
  // second element into the spill deque, so the subsequent drain *must*
  // merge the two stores.
  testutil::QueueRig rig(/*ring_capacity=*/2);
  rig.queue->SetSingleProducer(true);
  ASSERT_TRUE(rig.queue->has_ring());

  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) rig.src->Push(Tuple::OfInt(i, i));
  rig.src->Close(kCount);
  EXPECT_GT(rig.queue->ring_pushes(), 0) << "ring never used";
  EXPECT_GT(rig.queue->locked_pushes(), 0) << "spillover never hit";

  while (!rig.queue->Exhausted()) rig.queue->DrainBatch(7);
  EXPECT_TRUE(rig.sink->closed());
  const std::vector<Tuple> results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(results[i].IntAt(0), i)
        << "FIFO violated across the ring/spill merge at " << i;
  }
}

TEST(QueueSpillTest, EngineWithTinyRingsPreservesChainOrder) {
  // A full engine run where *every* placed queue has a 2-slot ring: the
  // stream is buffered before the workers start, so nearly all of it
  // travels through the spill path, and the chain's sink must still see
  // the exact input sequence.
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  src->SetInterarrivalMicros(10.0);
  Node* keep = qb.Select(src, "keep", [](const Tuple&) { return true; });
  keep->SetSelectivity(1.0);
  keep->SetCostMicros(0.5);
  Node* shift = qb.Map(keep, "shift", [](const Tuple& t) {
    return Tuple::OfInt(t.IntAt(0) + 1, t.timestamp());
  });
  shift->SetSelectivity(1.0);
  shift->SetCostMicros(0.5);
  CollectingSink* sink = qb.CollectSink(shift, "sink");

  for (ExecutionMode mode : {ExecutionMode::kGts, ExecutionMode::kOts}) {
    SCOPED_TRACE(ExecutionModeToString(mode));
    StreamEngine engine(&graph);
    EngineOptions opt;
    opt.mode = mode;
    opt.queue_ring_capacity = 2;
    ASSERT_TRUE(engine.Configure(opt).ok());

    constexpr int kCount = 2000;
    for (int i = 0; i < kCount; ++i) src->Push(Tuple::OfInt(i, i));
    src->Close(kCount);
    ASSERT_TRUE(engine.Start().ok());
    engine.WaitUntilFinished();

    bool some_queue_spilled = false;
    for (const QueueOp* queue : engine.queues()) {
      if (queue->has_ring() && queue->locked_pushes() > 0 &&
          queue->ring_pushes() > 0) {
        some_queue_spilled = true;
      }
    }
    EXPECT_TRUE(some_queue_spilled)
        << "tiny rings should force the spillover path";

    const std::vector<Tuple> results = sink->TakeResults();
    ASSERT_EQ(results.size(), static_cast<size_t>(kCount));
    for (int i = 0; i < kCount; ++i) {
      ASSERT_EQ(results[i].IntAt(0), i + 1)
          << "sequence broken after spill/merge at " << i;
    }
    ASSERT_TRUE(engine.ResetForRerun().ok());
  }
}

TEST(QueueSpillTest, ConcurrentSpillMergeKeepsOrderUnderOts) {
  // Producer and consumers race on the tiny ring: spillover toggles on and
  // off as the ring fills and frees, exercising merge at the boundary in
  // both directions.
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  src->SetInterarrivalMicros(10.0);
  Node* keep = qb.Select(src, "keep", [](const Tuple&) { return true; });
  keep->SetSelectivity(1.0);
  CollectingSink* sink = qb.CollectSink(keep, "sink");

  StreamEngine engine(&graph);
  EngineOptions opt;
  opt.mode = ExecutionMode::kOts;
  opt.queue_ring_capacity = 2;
  ASSERT_TRUE(engine.Configure(opt).ok());
  ASSERT_TRUE(engine.Start().ok());
  constexpr int kCount = 20'000;
  for (int i = 0; i < kCount; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(kCount);
  engine.WaitUntilFinished();

  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(results[i].IntAt(0), i) << "FIFO violated at " << i;
  }
}

}  // namespace
}  // namespace flexstream
