// Columnar execution path integration (DESIGN.md §17): source-side
// columnar accumulation and schema drift, the punctuation-split invariant,
// typed kernels vs the row-wise path across engine modes, arena lifetime
// through boxed queue transport (including spillover), pool recycling in
// steady state, and the fallback contract with the epoch/recovery
// machinery armed.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
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
#include "operators/symmetric_hash_join.h"
#include "operators/tumbling_aggregate.h"
#include "queue/queue_op.h"
#include "stats/report.h"
#include "tuple/batch_pool.h"
#include "tuple/columnar_batch.h"
#include "tuple/schema.h"
#include "util/clock.h"

namespace flexstream {
namespace {

constexpr auto kWait = std::chrono::seconds(60);

/// Pass-through recording delivery granularity: one entry per columnar
/// batch (its size), plus row-wise batch and per-tuple delivery counts.
class ColumnarRecordingOp : public Operator {
 public:
  explicit ColumnarRecordingOp(std::string name)
      : Operator(Kind::kOperator, std::move(name), 1) {}

  std::vector<size_t> columnar_sizes;
  std::vector<size_t> row_batch_sizes;
  int64_t singles = 0;

 protected:
  bool AcceptsColumnar(const Schema&, int) const override { return true; }
  void Process(const Tuple& tuple, int) override {
    ++singles;
    Emit(tuple);
  }
  void ProcessBatch(TupleBatch&& batch, int) override {
    row_batch_sizes.push_back(batch.size());
    EmitBatch(std::move(batch));
  }
  void ProcessColumnar(ColumnarBatchPtr batch, int) override {
    columnar_sizes.push_back(batch->size());
    EmitColumnar(std::move(batch));
  }
};

// -- Source-side columnar accumulation --------------------------------------

TEST(ColumnarSourceTest, AccumulatesTypedBatchesAndFlushesOnClose) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  ColumnarRecordingOp* rec = g.Add<ColumnarRecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  src->DeclareOutputSchema(MakeSchema({Value::Type::kInt64}));
  src->SetEmitBatchSize(4);
  src->SetColumnarEmit(true);

  for (int i = 0; i < 10; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(rec->columnar_sizes, (std::vector<size_t>{4, 4}));
  src->Close(10);
  EXPECT_TRUE(sink->closed()) << "close flushes the partial batch, then EOS";
  EXPECT_EQ(rec->columnar_sizes, (std::vector<size_t>{4, 4, 2}));
  EXPECT_EQ(rec->singles, 0);
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[i].IntAt(0), i);
    EXPECT_EQ(results[i].timestamp(), i);
  }
}

TEST(ColumnarSourceTest, SchemaDriftFlushesAndRestartsUnderNewSchema) {
  // No declared schema: the working schema is inferred from the first
  // element; a drifting element flushes the open batch and starts a new
  // one. Order must be preserved exactly.
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  ColumnarRecordingOp* rec = g.Add<ColumnarRecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  src->SetEmitBatchSize(8);
  src->SetColumnarEmit(true);

  src->Push(Tuple::OfInt(0, 0));
  src->Push(Tuple::OfInt(1, 1));
  src->Push(Tuple({Value("drift")}, 2));  // type change: flush {2}, restart
  src->Push(Tuple({Value("more")}, 3));
  src->Close(4);
  EXPECT_EQ(rec->columnar_sizes, (std::vector<size_t>{2, 2}));
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].IntAt(0), 0);
  EXPECT_EQ(results[1].IntAt(0), 1);
  EXPECT_EQ(results[2].StringAt(0), "drift");
  EXPECT_EQ(results[3].StringAt(0), "more");
}

TEST(ColumnarSourceTest, LingerAndDriftFlushesAreCounted) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  ColumnarRecordingOp* rec = g.Add<ColumnarRecordingOp>("rec");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, rec).ok());
  ASSERT_TRUE(g.Connect(rec, sink).ok());
  VirtualClock clock;
  src->SetLingerClock(&clock);
  src->SetEmitBatchSize(4);
  src->SetColumnarEmit(true);

  // A slow first batch (60 us apart) marks the source for linger checks.
  for (int i = 0; i < 4; ++i) {
    src->Push(Tuple::OfInt(i, i));
    clock.Advance(std::chrono::microseconds(60));
  }
  src->Push(Tuple::OfInt(4, 4));
  clock.Advance(std::chrono::microseconds(100));
  src->Push(Tuple::OfInt(5, 5));  // lingered: {4, 5} goes out
  src->Push(Tuple::OfInt(6, 6));
  src->Push(Tuple({Value("drift")}, 7));  // type change: {6} goes out
  src->Close(8);                          // {"drift"} goes out
  EXPECT_EQ(rec->columnar_sizes, (std::vector<size_t>{4, 2, 1, 1}));
  EXPECT_EQ(src->flushes(FlushReason::kFull), 1);
  EXPECT_EQ(src->flushes(FlushReason::kLinger), 1);
  EXPECT_EQ(src->flushes(FlushReason::kSchemaDrift), 1);
  EXPECT_EQ(src->flushes(FlushReason::kClose), 1);
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(results[i].IntAt(0), i);
  EXPECT_EQ(results[7].StringAt(0), "drift");

  const std::string report = StatsReport(g);
  EXPECT_NE(report.find("linger"), std::string::npos)
      << "the stats report breaks source flushes down by cause";
}

/// Records which side of the columnar door (Operator::ReceiveColumnar)
/// each delivery to an `Op` took: 'c' for the columnar kernel, 'r' for the
/// row batch path. Deliveries run through unchanged.
template <typename Op>
class DoorRecorder : public Op {
 public:
  using Op::Op;
  std::string doors;

 protected:
  void ProcessBatch(TupleBatch&& batch, int port) override {
    doors += 'r';
    Op::ProcessBatch(std::move(batch), port);
  }
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override {
    doors += 'c';
    Op::ProcessColumnar(std::move(batch), port);
  }
};

/// An operator without a columnar kernel (AcceptsColumnar keeps its
/// default, false).
class RowOnlyOp : public Operator {
 public:
  explicit RowOnlyOp(std::string name)
      : Operator(Kind::kOperator, std::move(name), 1) {}

 protected:
  void Process(const Tuple& tuple, int) override { Emit(tuple); }
  void ProcessBatch(TupleBatch&& batch, int) override {
    EmitBatch(std::move(batch));
  }
};

/// src -> DoorRecorder<Op> [-> collecting sink unless Op is a sink] over
/// the ints 0..7 in source batches of 4, columnar or row-wise.
template <typename Op>
struct DoorRig {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  DoorRecorder<Op>* op = nullptr;
  CollectingSink* sink = nullptr;

  template <typename... Args>
  explicit DoorRig(bool columnar, Args&&... args) {
    op = g.template Add<DoorRecorder<Op>>("op", std::forward<Args>(args)...);
    EXPECT_TRUE(g.Connect(src, op).ok());
    if (!op->is_sink()) {
      sink = g.Add<CollectingSink>("out");
      EXPECT_TRUE(g.Connect(op, sink).ok());
    }
    src->SetEmitBatchSize(4);
    src->SetColumnarEmit(columnar);
  }

  void Feed() {
    for (int i = 0; i < 8; ++i) src->Push(Tuple::OfInt(i, i));
    src->Close(8);
  }
};

/// Feeds `Op` built from `args` once columnar, once row-wise; expects the
/// columnar run to take `doors` and both runs to emit the same rows.
template <typename Op, typename... Args>
void ExpectDoor(const std::string& doors, const Args&... args) {
  DoorRig<Op> col(/*columnar=*/true, args...);
  DoorRig<Op> row(/*columnar=*/false, args...);
  col.Feed();
  row.Feed();
  EXPECT_EQ(col.op->doors, doors);
  EXPECT_EQ(row.op->doors, "rr") << "row batches never reach a kernel";
  const std::vector<Tuple> results = col.sink->TakeResults();
  EXPECT_EQ(results, row.sink->TakeResults());
  EXPECT_FALSE(results.empty());
}

TEST(ColumnarSourceTest, NonNativeOperatorMaterializesAtTheDoor) {
  // An operator without a columnar kernel must receive the rows the batch
  // holds — the transparent fallback of the §17 contract.
  ExpectDoor<RowOnlyOp>("rr");
  // Row-form Selection and MapOp have no kernel; the typed forms take a
  // batch carrying kInt64 at their attribute.
  ExpectDoor<Selection>("rr", Selection::IntAttrLessThan(5));
  ExpectDoor<Selection>("cc", Selection::ColumnIntLessThan(5));
  ExpectDoor<MapOp>("rr", MapOp::MapFn([](const Tuple& t) {
                      return Tuple::OfInt(t.IntAt(0) * 3, t.timestamp());
                    }));
  ExpectDoor<MapOp>("cc",
                    Int64ColumnMap{0, [](int64_t v) { return v * 3; }});

  // A counting sink takes every schema, unless its timeline — one sample
  // per arrival — is on.
  for (const bool timeline : {false, true}) {
    DoorRig<CountingSink> col(/*columnar=*/true);
    if (timeline) col.op->StartTimeline(Now());
    col.Feed();
    EXPECT_EQ(col.op->doors, timeline ? "rr" : "cc");
    EXPECT_EQ(col.op->count(), 8);
    EXPECT_EQ(col.op->TakeTimeline().size(), timeline ? 8u : 0u);
  }
}

// -- Typed kernels match the row path end-to-end -----------------------------

struct ChainPipeline {
  QueryGraph graph;
  Source* src = nullptr;
  CollectingSink* sink = nullptr;
};

/// src(int, string) -> typed sel(v % 3 != 0) -> typed map(v * 7) ->
/// proj(keep 0) -> sink.
void BuildTypedChain(ChainPipeline* p) {
  QueryBuilder qb(&p->graph);
  p->src = qb.AddSource("src");
  p->src->DeclareOutputSchema(
      MakeSchema({Value::Type::kInt64, Value::Type::kString}));
  Selection* sel = qb.Select(
      p->src, "sel",
      Int64ColumnPredicate{0, [](int64_t v) { return v % 3 != 0; }});
  MapOp* map = qb.Map(sel, "map",
                      Int64ColumnMap{0, [](int64_t v) { return v * 7; }});
  Projection* proj = qb.Project(map, "proj", {0});
  p->sink = qb.CollectSink(proj, "sink");
}

std::vector<Tuple> RunTypedChain(const EngineOptions& options, int feed) {
  ChainPipeline p;
  BuildTypedChain(&p);
  StreamEngine engine(&p.graph);
  EXPECT_TRUE(engine.Configure(options).ok());
  EXPECT_TRUE(engine.Start().ok());
  for (int i = 0; i < feed; ++i) {
    p.src->Push(Tuple({Value(int64_t{i}), Value("p" + std::to_string(i))}, i));
  }
  p.src->Close(feed);
  EXPECT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  engine.Stop();
  std::vector<Tuple> results = p.sink->TakeResults();
  std::sort(results.begin(), results.end());
  return results;
}

TEST(ColumnarEngineTest, TypedChainMatchesRowPathAcrossModes) {
  const int kFeed = 500;
  EngineOptions base;
  base.mode = ExecutionMode::kGts;
  const std::vector<Tuple> golden = RunTypedChain(base, kFeed);
  ASSERT_FALSE(golden.empty());
  for (ExecutionMode mode :
       {ExecutionMode::kDirect, ExecutionMode::kGts, ExecutionMode::kOts,
        ExecutionMode::kHmts}) {
    EngineOptions options;
    options.mode = mode;
    options.emit_batch_size = 64;
    options.columnar = true;
    EXPECT_EQ(RunTypedChain(options, kFeed), golden)
        << "columnar " << ExecutionModeToString(mode) << " diverged";
  }
}

TEST(ColumnarEngineTest, JoinKernelMatchesRowPath) {
  // Two sources -> typed-key SHJ. The window spans the whole stream, so
  // no tuple ever expires and the match multiset is exactly "all
  // key-equal cross-side pairs" regardless of cross-port arrival order
  // (which kGts does not fix). Emitted timestamps ride the probe side —
  // arrival-order-dependent — so the comparison is over value pairs only.
  auto run = [](bool columnar) {
    QueryGraph g;
    QueryBuilder qb(&g);
    Source* left = qb.AddSource("left");
    Source* right = qb.AddSource("right");
    left->DeclareOutputSchema(MakeSchema({Value::Type::kInt64}));
    right->DeclareOutputSchema(MakeSchema({Value::Type::kInt64}));
    SymmetricHashJoin* join = qb.HashJoin(left, right, "join", 1'000'000);
    CollectingSink* sink = qb.CollectSink(join, "sink");

    StreamEngine engine(&g);
    EngineOptions options;
    options.mode = ExecutionMode::kGts;
    options.emit_batch_size = columnar ? 16 : 1;
    options.columnar = columnar;
    EXPECT_TRUE(engine.Configure(options).ok());
    EXPECT_TRUE(engine.Start().ok());
    for (int i = 0; i < 300; ++i) {
      left->Push(Tuple::OfInt(i % 10, i));
      right->Push(Tuple::OfInt(i % 10, i));
    }
    left->Close(300);
    right->Close(300);
    EXPECT_TRUE(engine.WaitUntilFinishedFor(kWait));
    EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
    engine.Stop();
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (const Tuple& t : sink->TakeResults()) {
      pairs.emplace_back(t.IntAt(0), t.IntAt(1));
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto row_wise = run(false);
  // 30 occurrences of each of 10 keys per side -> 900 pairs per key.
  ASSERT_EQ(row_wise.size(), 9000u);
  EXPECT_EQ(run(true), row_wise);
}

TEST(ColumnarEngineTest, GroupedAggregateKernelMatchesRowPath) {
  // Single source (timestamp-monotone by construction) -> typed grouped
  // tumbling sum: the typed-column accumulation must reproduce the row
  // path, including the int64 -> double value coercion.
  auto run = [](bool columnar) {
    QueryGraph g;
    QueryBuilder qb(&g);
    Source* src = qb.AddSource("src");
    src->DeclareOutputSchema(
        MakeSchema({Value::Type::kInt64, Value::Type::kInt64}));
    TumblingAggregate::Options agg_options;
    agg_options.window_micros = 50;
    agg_options.kind = AggregateKind::kSum;
    agg_options.group_attr = 0;
    agg_options.value_attr = 1;
    TumblingAggregate* agg = qb.Tumbling(src, "agg", agg_options);
    CollectingSink* sink = qb.CollectSink(agg, "sink");

    StreamEngine engine(&g);
    EngineOptions options;
    options.mode = ExecutionMode::kGts;
    options.emit_batch_size = columnar ? 16 : 1;
    options.columnar = columnar;
    EXPECT_TRUE(engine.Configure(options).ok());
    EXPECT_TRUE(engine.Start().ok());
    for (int i = 0; i < 400; ++i) {
      src->Push(Tuple({Value(int64_t{i % 7}), Value(int64_t{i})}, i));
    }
    src->Close(400);
    EXPECT_TRUE(engine.WaitUntilFinishedFor(kWait));
    EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
    engine.Stop();
    std::vector<Tuple> results = sink->TakeResults();
    std::sort(results.begin(), results.end());
    return results;
  };
  const std::vector<Tuple> row_wise = run(false);
  ASSERT_FALSE(row_wise.empty());
  EXPECT_EQ(run(true), row_wise);
}

// -- Queue transport: boxed batches and arena lifetime -----------------------

void RunColumnarQueueOrdering(size_t ring_capacity) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  QueueOp* q = g.Add<QueueOp>("q", ring_capacity);
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  q->SetSingleProducer(true);
  q->SetBatchDelivery(true);
  src->DeclareOutputSchema(
      MakeSchema({Value::Type::kInt64, Value::Type::kString}));
  src->SetEmitBatchSize(8);
  src->SetColumnarEmit(true);

  constexpr int kFeed = 500;
  std::thread producer([&] {
    for (int i = 0; i < kFeed; ++i) {
      // Long payloads: every string lives in the batch arena; the batch
      // (and arena) must stay alive until the consumer materializes it.
      src->Push(Tuple(
          {Value(int64_t{i}), Value(std::string(64, 'a') + std::to_string(i))},
          i));
    }
    src->Close(kFeed);
  });
  while (!q->Exhausted()) q->DrainBatch(32);
  producer.join();

  EXPECT_TRUE(sink->closed());
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kFeed));
  for (int i = 0; i < kFeed; ++i) {
    ASSERT_EQ(results[i].IntAt(0), i) << "order broken at " << i;
    ASSERT_EQ(results[i].StringAt(1), std::string(64, 'a') + std::to_string(i))
        << "arena payload corrupted at " << i;
  }
}

TEST(ColumnarQueueTest, BoxedBatchesKeepOrderAndArenaAlive) {
  RunColumnarQueueOrdering(QueueOp::kDefaultRingCapacity);
}

TEST(ColumnarQueueTest, SpilloverKeepsOrderAndArenaAlive) {
  // Ring capacity 2: boxed batches overflow into the spillover deque, so
  // drains run the seq-merge path with boxed items in flight.
  RunColumnarQueueOrdering(2);
}

// -- Engine wiring: pooling -------------------------------------------------

TEST(ColumnarEngineTest, PoolRecyclesBatchesInSteadyState) {
  // Steady state means the consumer keeps up: each 64-row batch is fed,
  // fully drained (sink observed), and only then is the next one pushed.
  // The worker's releases fill its thread-local free list (cap 8) and
  // overflow into the global pool, where the producer-side source must
  // find them — if it allocates fresh storage instead, the pool is dead.
  // (An unthrottled feed on one CPU can push every batch before the
  // worker releases any, which legitimately never hits the pool.)
  columnar::ResetPoolStatsForTest();
  ChainPipeline p;
  BuildTypedChain(&p);
  StreamEngine engine(&p.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kDirect;
  options.emit_batch_size = 64;
  options.columnar = true;
  ASSERT_TRUE(engine.Configure(options).ok());
  // Each chunk must be exactly one full batch. A frozen linger clock keeps
  // a slow (sanitized) feed from cutting a chunk on the linger bound, which
  // would leave its tail pending until the next push.
  VirtualClock linger_clock;
  p.src->SetLingerClock(&linger_clock);
  ASSERT_TRUE(engine.Start().ok());
  int64_t fed = 0;
  size_t expected = 0;
  for (int chunk = 0; chunk < 32; ++chunk) {
    for (int i = 0; i < 64; ++i, ++fed) {
      if (fed % 3 != 0) ++expected;  // the chain's selection predicate
      p.src->Push(
          Tuple({Value(fed), Value("p" + std::to_string(fed))}, fed));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (p.sink->size() < expected) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "sink stuck at " << p.sink->size() << "/" << expected;
      std::this_thread::yield();
    }
  }
  p.src->Close(fed);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  const columnar::PoolStats stats = columnar::GetPoolStats();
  EXPECT_GT(stats.acquires, 0u);
  EXPECT_GT(stats.pool_hits, 0u)
      << "steady-state batches must come from the pool, not the allocator";
}

// -- Fallback contract: epochs, checkpoints, recovery ------------------------

TEST(ColumnarEngineTest, CheckpointedRunStaysExactWithColumnarEnabled) {
  // Armed epoch machinery unbundles/materializes at every gate it owns;
  // the run must still commit epochs and produce the row-path result.
  const int kFeed = 400;
  EngineOptions base;
  base.mode = ExecutionMode::kGts;
  const std::vector<Tuple> golden = RunTypedChain(base, kFeed);

  ChainPipeline p;
  BuildTypedChain(&p);
  StreamEngine engine(&p.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = 25;
  options.emit_batch_size = 64;
  options.columnar = true;
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < kFeed; ++i) {
    p.src->Push(Tuple({Value(int64_t{i}), Value("p" + std::to_string(i))}, i));
  }
  p.src->Close(kFeed);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  ASSERT_NE(engine.recovery(), nullptr);
  EXPECT_GT(engine.recovery()->coordinator().epochs_committed(), 0)
      << "epochs must still commit with the columnar layer enabled";
  engine.Stop();

  std::vector<Tuple> got = p.sink->TakeResults();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, golden);
}

TEST(ColumnarEngineTest, SnapshotRestoreUnderColumnarFeedStaysExact) {
  // Snapshot a stateful operator mid-run while the source feeds columnar
  // batches, restore it, and finish: the fallback must keep the epoch
  // protocol byte-exact (state is only ever built from materialized rows).
  auto run = [](bool columnar) {
    QueryGraph g;
    QueryBuilder qb(&g);
    Source* src = qb.AddSource("src");
    src->DeclareOutputSchema(MakeSchema({Value::Type::kInt64}));
    TumblingAggregate::Options agg_options;
    agg_options.window_micros = 50;
    agg_options.kind = AggregateKind::kCount;
    TumblingAggregate* agg = qb.Tumbling(src, "agg", agg_options);
    CollectingSink* sink = qb.CollectSink(agg, "sink");

    StreamEngine engine(&g);
    EngineOptions options;
    options.mode = ExecutionMode::kGts;
    options.checkpoint_epoch_interval = 20;
    options.emit_batch_size = columnar ? 16 : 1;
    options.columnar = columnar;
    EXPECT_TRUE(engine.Configure(options).ok());
    EXPECT_TRUE(engine.Start().ok());
    for (int i = 0; i < 300; ++i) src->Push(Tuple::OfInt(i, i));
    src->Close(300);
    EXPECT_TRUE(engine.WaitUntilFinishedFor(kWait));
    EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
    engine.Stop();
    std::vector<Tuple> results = sink->TakeResults();
    std::sort(results.begin(), results.end());
    return results;
  };
  const std::vector<Tuple> row_wise = run(false);
  ASSERT_FALSE(row_wise.empty());
  EXPECT_EQ(run(true), row_wise);
}

}  // namespace
}  // namespace flexstream
