// Batch execution path (DESIGN.md §11): TupleBatch semantics, source-side
// accumulation and its linger bound, batch-native operator overrides, the per-tuple fallback,
// move behaviour of owned payloads, queue batch delivery ordering across
// all three internal paths, and epoch alignment with batching enabled.

#include "tuple/tuple_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "graph/query_graph.h"
#include "operators/map_op.h"
#include "operators/projection.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/union_op.h"
#include "queue/queue_op.h"
#include "util/clock.h"

namespace flexstream {
namespace {

constexpr auto kWait = std::chrono::seconds(60);

// -- TupleBatch container semantics -----------------------------------------

TEST(TupleBatchTest, PushBackAndIterateInOrder) {
  TupleBatch batch;
  for (int i = 0; i < 5; ++i) batch.PushBack(Tuple::OfInt(i, i));
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_FALSE(batch.empty());
  int expected = 0;
  for (const Tuple& tuple : batch) EXPECT_EQ(tuple.IntAt(0), expected++);
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

TEST(TupleBatchTest, CompactFiltersInPlacePreservingOrder) {
  TupleBatch batch;
  for (int i = 0; i < 10; ++i) batch.PushBack(Tuple::OfInt(i, i));
  batch.Compact([](const Tuple& t) { return t.IntAt(0) % 2 == 0; });
  ASSERT_EQ(batch.size(), 5u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].IntAt(0), static_cast<int64_t>(2 * i));
  }
  batch.Compact([](const Tuple&) { return false; });
  EXPECT_TRUE(batch.empty());
}

TEST(TupleBatchTest, TakeTuplesHandsBackTheVector) {
  TupleBatch batch;
  batch.PushBack(Tuple::OfInt(7, 1));
  batch.PushBack(Tuple::OfInt(8, 2));
  std::vector<Tuple> taken = batch.TakeTuples();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].IntAt(0), 7);
  EXPECT_EQ(taken[1].IntAt(0), 8);
}

// -- Source-side accumulation -----------------------------------------------

/// Pass-through operator recording how deliveries arrive: one entry per
/// ReceiveBatch (the batch size) and a count of per-tuple deliveries.
class RecordingOp : public Operator {
 public:
  explicit RecordingOp(std::string name)
      : Operator(Kind::kOperator, std::move(name), 1) {}

  std::vector<size_t> batch_sizes;
  int64_t singles = 0;

 protected:
  void Process(const Tuple& tuple, int) override {
    ++singles;
    Emit(tuple);
  }
  void ProcessBatch(TupleBatch&& batch, int) override {
    batch_sizes.push_back(batch.size());
    EmitBatch(std::move(batch));
  }
};

TEST(BatchPathTest, SourceAccumulatesAndFlushesRemainderOnClose) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  RecordingOp* rec = g.Add<RecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  src->SetEmitBatchSize(4);
  for (int i = 0; i < 10; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(sink->size(), 8u) << "two full batches emitted, 2 pending";
  src->Close(10);
  EXPECT_TRUE(sink->closed());
  EXPECT_EQ(rec->batch_sizes, (std::vector<size_t>{4, 4, 2}))
      << "close flushes the partial batch before EOS";
  EXPECT_EQ(rec->singles, 0);
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

TEST(BatchPathTest, BatchSizeOneKeepsPerTuplePath) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  RecordingOp* rec = g.Add<RecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  for (int i = 0; i < 5; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(5);
  EXPECT_TRUE(rec->batch_sizes.empty());
  EXPECT_EQ(rec->singles, 5);
  EXPECT_EQ(sink->size(), 5u);
}

// -- Linger bound (kBatchLinger) --------------------------------------------

/// Scripted linger clock: every read advances virtual time by `step` and is
/// counted, so a test can bound the reads per batch.
class CountingClock : public Clock {
 public:
  TimePoint Now() override {
    ++reads;
    now += step;
    return now;
  }
  int64_t reads = 0;
  Duration step{};
  TimePoint now{};
};

struct LingerRig {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  RecordingOp* rec = g.Add<RecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");

  LingerRig(size_t batch_size, Clock* clock) {
    EXPECT_TRUE(g.Connect(src, rec).ok());
    EXPECT_TRUE(g.Connect(rec, sink).ok());
    src->SetEmitBatchSize(batch_size);
    src->SetLingerClock(clock);
  }
};

TEST(SourceLingerTest, SlowSourceFlushesAtTheBoundOnItsNextPush) {
  VirtualClock clock;
  LingerRig rig(4, &clock);
  Source* src = rig.src;
  // 60 us apart, the first batch takes 180 us to fill: it is still
  // emitted full, and marks the source as slow.
  for (int i = 0; i < 4; ++i) {
    src->Push(Tuple::OfInt(i, i));
    clock.Advance(std::chrono::microseconds(60));
  }
  EXPECT_EQ(rig.rec->batch_sizes, (std::vector<size_t>{4}));

  src->Push(Tuple::OfInt(4, 4));
  clock.Advance(std::chrono::microseconds(50));
  src->Push(Tuple::OfInt(5, 5));
  clock.Advance(std::chrono::microseconds(60));
  EXPECT_EQ(rig.rec->batch_sizes, (std::vector<size_t>{4}))
      << "a lingering batch waits for the next push";
  src->Push(Tuple::OfInt(6, 6));  // 110 us after the batch started
  EXPECT_EQ(rig.rec->batch_sizes, (std::vector<size_t>{4, 3}))
      << "the first push past the bound emits the batch, itself included";
  EXPECT_EQ(src->flushes(FlushReason::kLinger), 1);
  EXPECT_EQ(src->flushes(FlushReason::kFull), 1);

  src->Close(7);
  EXPECT_EQ(rig.rec->batch_sizes, (std::vector<size_t>{4, 3}));
  EXPECT_EQ(src->flushes(FlushReason::kClose), 0) << "nothing was pending";
  const std::vector<Tuple> results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

TEST(SourceLingerTest, FastSourceReadsTheClockTwicePerFullBatch) {
  CountingClock clock;
  clock.step = std::chrono::microseconds(1);
  LingerRig rig(64, &clock);
  for (int i = 0; i < 640; ++i) rig.src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(rig.rec->batch_sizes, std::vector<size_t>(10, 64));
  EXPECT_EQ(clock.reads, 20) << "one read when a batch starts, one when full";
  EXPECT_EQ(rig.src->flushes(FlushReason::kFull), 10);
  EXPECT_EQ(rig.src->flushes(FlushReason::kLinger), 0);
}

TEST(SourceLingerTest, WatchEndsOnceABatchFillsWithinTheBound) {
  CountingClock clock;
  clock.step = std::chrono::microseconds(200);
  LingerRig rig(4, &clock);
  Source* src = rig.src;
  for (int i = 0; i < 4; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(clock.reads, 2);  // 200 us between start and full: now slow
  clock.step = std::chrono::microseconds(1);
  for (int i = 4; i < 8; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(clock.reads, 6) << "a watched batch reads on every push";
  for (int i = 8; i < 12; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(clock.reads, 8) << "filled within the bound: back to two reads";
  EXPECT_EQ(rig.rec->batch_sizes, (std::vector<size_t>{4, 4, 4}));
  EXPECT_EQ(src->flushes(FlushReason::kLinger), 0);
}

TEST(SourceLingerTest, BarrierAndCloseFlushesAreUnchanged) {
  VirtualClock clock;  // never advances: no batch can linger
  LingerRig rig(4, &clock);
  Source* src = rig.src;
  std::shared_mutex gate;
  src->ArmEpochs(6, /*observer=*/nullptr, &gate);
  // Barriers after elements 6 and 12 cut the batch each time: {4, 2},
  // {4, 2}, then Close flushes {2}. (After the first barrier the recorder
  // holds alignment state and unbundles batches, so the counters tell.)
  for (int i = 0; i < 6; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(rig.rec->batch_sizes, (std::vector<size_t>{4, 2}));
  for (int i = 6; i < 14; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(rig.sink->size(), 12u) << "two elements pending";
  src->Close(14);
  EXPECT_TRUE(rig.sink->closed());
  EXPECT_EQ(src->flushes(FlushReason::kFull), 2);
  EXPECT_EQ(src->flushes(FlushReason::kBarrier), 2);
  EXPECT_EQ(src->flushes(FlushReason::kClose), 1);
  EXPECT_EQ(src->flushes(FlushReason::kLinger), 0);
  const std::vector<Tuple> results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 14u);
  for (int i = 0; i < 14; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

// -- Batch-native operators match per-tuple execution -----------------------

/// src -> sel(odd) -> proj(keep 0) -> map(x+1) -> sink with the given
/// delivery granularity; returns the sink's output sequence.
std::vector<Tuple> RunChain(size_t emit_batch_size, int feed) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* sel = g.Add<Selection>(
      "sel", [](const Tuple& t) { return t.IntAt(0) % 2 == 1; });
  Projection* proj = g.Add<Projection>("proj", std::vector<size_t>{0});
  MapOp* map = g.Add<MapOp>("map", [](const Tuple& t) {
    return Tuple::OfInt(t.IntAt(0) + 1, t.timestamp());
  });
  CollectingSink* sink = g.Add<CollectingSink>("out");
  EXPECT_TRUE(g.Connect(src, sel).ok());
  EXPECT_TRUE(g.Connect(sel, proj).ok());
  EXPECT_TRUE(g.Connect(proj, map).ok());
  EXPECT_TRUE(g.Connect(map, sink).ok());
  src->SetEmitBatchSize(emit_batch_size);
  for (int i = 0; i < feed; ++i) {
    src->Push(Tuple({Value(int64_t{i}), Value(double(i) / 2)}, i));
  }
  src->Close(feed);
  EXPECT_TRUE(sink->closed());
  return sink->TakeResults();
}

TEST(BatchPathTest, SelectionProjectionMapChainMatchesPerTuple) {
  const std::vector<Tuple> per_tuple = RunChain(1, 100);
  ASSERT_EQ(per_tuple.size(), 50u);
  for (size_t batch : {size_t{4}, size_t{64}, size_t{1000}}) {
    EXPECT_EQ(RunChain(batch, 100), per_tuple)
        << "batch size " << batch << " changed the output";
  }
}

TEST(BatchPathTest, ProjectionDuplicateAttrsAreCopiedNotDoubleMoved) {
  // A repeated attribute index must not read a moved-from Value on the
  // batch path.
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Projection* proj = g.Add<Projection>("dup", std::vector<size_t>{0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, proj).ok());
  ASSERT_TRUE(g.Connect(proj, sink).ok());
  src->SetEmitBatchSize(8);
  const std::string payload(80, 'x');
  for (int i = 0; i < 8; ++i) {
    src->Push(Tuple({Value(payload + std::to_string(i))}, i));
  }
  src->Close(8);
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(results[i].arity(), 2u);
    EXPECT_EQ(results[i].StringAt(0), payload + std::to_string(i));
    EXPECT_EQ(results[i].StringAt(1), payload + std::to_string(i));
  }
}

TEST(BatchPathTest, UnionForwardsBatchesFromBothInputs) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  UnionOp* u = g.Add<UnionOp>("u");
  RecordingOp* rec = g.Add<RecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(a, u).ok());
  ASSERT_TRUE(g.Connect(b, u).ok());
  ASSERT_TRUE(g.Connect(u, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  a->SetEmitBatchSize(3);
  b->SetEmitBatchSize(3);
  for (int i = 0; i < 3; ++i) a->Push(Tuple::OfInt(i, i));
  for (int i = 10; i < 13; ++i) b->Push(Tuple::OfInt(i, i));
  a->Close(3);
  b->Close(13);
  EXPECT_TRUE(sink->closed());
  EXPECT_EQ(rec->batch_sizes, (std::vector<size_t>{3, 3}))
      << "union passes each input's batch through intact";
  EXPECT_EQ(sink->size(), 6u);
}

TEST(BatchPathTest, CountingSinkAbsorbsWholeBatches) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  CountingSink* sink = g.Add<CountingSink>("count");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  src->SetEmitBatchSize(16);
  for (int i = 0; i < 100; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(100);
  EXPECT_EQ(sink->count(), 100);
}

TEST(BatchPathTest, NonBatchOperatorDissolvesBatchToPerTuple) {
  // RecordingOp's base sibling: an operator relying on the default
  // ProcessBatch, which must fall back to N Process calls in order.
  class PerTupleOnlyOp : public Operator {
   public:
    explicit PerTupleOnlyOp(std::string name)
        : Operator(Kind::kOperator, std::move(name), 1) {}
    int64_t processed = 0;

   protected:
    void Process(const Tuple& tuple, int) override {
      ++processed;
      Emit(tuple);
    }
  };

  QueryGraph g;
  Source* src = g.Add<Source>("s");
  PerTupleOnlyOp* op = g.Add<PerTupleOnlyOp>("legacy");
  RecordingOp* rec = g.Add<RecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, op).ok());
  ASSERT_TRUE(g.Connect(op, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  src->SetEmitBatchSize(8);
  for (int i = 0; i < 20; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(20);
  EXPECT_EQ(op->processed, 20);
  EXPECT_EQ(rec->batch_sizes, std::vector<size_t>{})
      << "batches dissolve at a per-tuple operator";
  EXPECT_EQ(rec->singles, 20);
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

// -- Move behaviour (satellite: EmitMove audit) ------------------------------

TEST(BatchPathTest, StringPayloadsMoveThroughTheChainWithoutCopying) {
  // A heap-allocated string's buffer address survives every move; a copy
  // anywhere in source accumulation, selection compaction, projection
  // rebuild, or sink absorption would change it.
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* sel =
      g.Add<Selection>("keep", [](const Tuple&) { return true; });
  Projection* proj = g.Add<Projection>("p", std::vector<size_t>{0});
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sel).ok());
  ASSERT_TRUE(g.Connect(sel, proj).ok());
  ASSERT_TRUE(g.Connect(proj, sink).ok());
  src->SetEmitBatchSize(4);

  std::vector<const char*> buffers;
  for (int i = 0; i < 8; ++i) {
    // Well past any SSO threshold, so the payload lives on the heap.
    std::vector<Value> values;
    values.emplace_back(std::string(96, static_cast<char>('a' + i)));
    Tuple tuple(std::move(values), i);
    buffers.push_back(tuple.StringAt(0).data());
    src->Push(std::move(tuple));
  }
  src->Close(8);
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 8u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(static_cast<const void*>(results[i].StringAt(0).data()),
              static_cast<const void*>(buffers[i]))
        << "payload " << i << " was copied somewhere in the chain";
  }
}

// -- Queue batch delivery ----------------------------------------------------

/// Feeds `feed` elements from a producer thread through a queue drained by
/// this thread, asserting exact FIFO order at the sink. Covers the three
/// internal queue paths x both delivery granularities.
void RunQueueOrdering(bool single_producer, size_t ring_capacity,
                      bool batch_delivery) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  QueueOp* q = g.Add<QueueOp>("q", ring_capacity);
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  q->SetSingleProducer(single_producer);
  q->SetBatchDelivery(batch_delivery);

  constexpr int kFeed = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kFeed; ++i) src->Push(Tuple::OfInt(i, i));
    src->Close(kFeed);
  });
  while (!q->Exhausted()) q->DrainBatch(32);
  producer.join();

  EXPECT_TRUE(sink->closed());
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kFeed));
  for (int i = 0; i < kFeed; ++i) {
    ASSERT_EQ(results[i].IntAt(0), i) << "order broken at index " << i;
  }
}

TEST(QueueBatchDeliveryTest, SpscRingOrderPerTuple) {
  RunQueueOrdering(true, QueueOp::kDefaultRingCapacity, false);
}
TEST(QueueBatchDeliveryTest, SpscRingOrderBatched) {
  RunQueueOrdering(true, QueueOp::kDefaultRingCapacity, true);
}
TEST(QueueBatchDeliveryTest, MpscOrderPerTuple) {
  RunQueueOrdering(false, QueueOp::kDefaultRingCapacity, false);
}
TEST(QueueBatchDeliveryTest, MpscOrderBatched) {
  RunQueueOrdering(false, QueueOp::kDefaultRingCapacity, true);
}
TEST(QueueBatchDeliveryTest, SpilloverOrderPerTuple) {
  // Ring capacity 2: nearly every enqueue overflows into the spillover
  // deque, so drains run the seq-merge path.
  RunQueueOrdering(true, 2, false);
}
TEST(QueueBatchDeliveryTest, SpilloverOrderBatched) {
  RunQueueOrdering(true, 2, true);
}

TEST(QueueBatchDeliveryTest, DrainDeliversRunsAsSingleBatches) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  QueueOp* q = g.Add<QueueOp>("q");
  RecordingOp* rec = g.Add<RecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  q->SetBatchDelivery(true);

  for (int i = 0; i < 3; ++i) src->Push(Tuple::OfInt(i, i));
  q->DrainBatch(100);
  for (int i = 3; i < 8; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(8);
  q->DrainBatch(100);

  EXPECT_TRUE(sink->closed()) << "EOS still travels per-tuple after a batch";
  EXPECT_EQ(rec->batch_sizes, (std::vector<size_t>{3, 5}));
  EXPECT_EQ(rec->singles, 0);
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

// -- Engine integration ------------------------------------------------------

struct EnginePipeline {
  QueryGraph graph;
  Source* src = nullptr;
  CollectingSink* sink = nullptr;
};

void BuildEnginePipeline(EnginePipeline* p) {
  QueryBuilder qb(&p->graph);
  p->src = qb.AddSource("src");
  Selection* sel =
      qb.Select(p->src, "sel", [](const Tuple& t) { return t.IntAt(0) % 3; });
  p->sink = qb.CollectSink(sel, "sink");
}

std::vector<Tuple> RunEngine(const EngineOptions& options, int feed) {
  EnginePipeline p;
  BuildEnginePipeline(&p);
  StreamEngine engine(&p.graph);
  EXPECT_TRUE(engine.Configure(options).ok());
  EXPECT_TRUE(engine.Start().ok());
  for (int i = 0; i < feed; ++i) p.src->Push(Tuple::OfInt(i, i));
  p.src->Close(feed);
  EXPECT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  engine.Stop();
  std::vector<Tuple> results = p.sink->TakeResults();
  std::sort(results.begin(), results.end());
  return results;
}

TEST(EngineBatchTest, BatchedRunMatchesPerTupleAcrossModes) {
  const int kFeed = 500;
  EngineOptions base;
  base.mode = ExecutionMode::kGts;
  const std::vector<Tuple> golden = RunEngine(base, kFeed);
  for (ExecutionMode mode :
       {ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    EngineOptions options;
    options.mode = mode;
    options.emit_batch_size = 64;
    EXPECT_EQ(RunEngine(options, kFeed), golden)
        << "batched " << ExecutionModeToString(mode) << " diverged";
  }
}

TEST(EngineBatchTest, EpochAlignmentHoldsWithBatchingEnabled) {
  // Barriers must split batches: checkpointing + batching together still
  // commit epochs and produce exactly the per-tuple result.
  const int kFeed = 400;
  EngineOptions base;
  base.mode = ExecutionMode::kGts;
  const std::vector<Tuple> golden = RunEngine(base, kFeed);

  EnginePipeline p;
  BuildEnginePipeline(&p);
  StreamEngine engine(&p.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = 25;
  options.emit_batch_size = 64;
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < kFeed; ++i) p.src->Push(Tuple::OfInt(i, i));
  p.src->Close(kFeed);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();

  ASSERT_NE(engine.recovery(), nullptr);
  EXPECT_GT(engine.recovery()->coordinator().epochs_committed(), 0)
      << "epochs must still commit with batch delivery enabled";
  engine.Stop();

  std::vector<Tuple> got = p.sink->TakeResults();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, golden);
}

}  // namespace
}  // namespace flexstream
