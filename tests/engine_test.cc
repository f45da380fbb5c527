// StreamEngine integration: every execution mode produces identical
// results; queue placement per mode; runtime mode switching.

#include "api/stream_engine.h"

#include <gtest/gtest.h>

#include <string>

#include "api/query_builder.h"
#include "test_util.h"
#include "workload/rate_source.h"

namespace flexstream {
namespace {

// src -> sel(keep < 700) -> map(*2) -> sink over 1000 uniform ints: the
// shared small-but-non-trivial pipeline (tests/harness/test_util.h).
using PipelineFixture = testutil::LinearPipelineFixture;
using testutil::Sorted;

std::vector<Tuple> RunMode(ExecutionMode mode, StrategyKind strategy,
                           PlacementKind placement,
                           size_t* expected = nullptr) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = mode;
  opt.strategy = strategy;
  opt.placement = placement;
  EXPECT_TRUE(engine.Configure(opt).ok());
  EXPECT_TRUE(engine.Start().ok() || mode == ExecutionMode::kSourceDriven);
  fx.Feed();
  engine.WaitUntilFinished();
  if (expected != nullptr) *expected = fx.expected_results;
  return fx.sink->TakeResults();
}

TEST(StreamEngineTest, AllModesProduceIdenticalResults) {
  size_t expected = 0;
  const auto reference = Sorted(
      RunMode(ExecutionMode::kSourceDriven, StrategyKind::kFifo,
              PlacementKind::kStallAvoiding, &expected));
  EXPECT_EQ(reference.size(), expected) << "filter must pass values < 700";
  EXPECT_GT(expected, 600u);
  const struct {
    ExecutionMode mode;
    StrategyKind strategy;
    PlacementKind placement;
  } cases[] = {
      {ExecutionMode::kDirect, StrategyKind::kFifo,
       PlacementKind::kStallAvoiding},
      {ExecutionMode::kGts, StrategyKind::kFifo,
       PlacementKind::kStallAvoiding},
      {ExecutionMode::kGts, StrategyKind::kChain,
       PlacementKind::kStallAvoiding},
      {ExecutionMode::kGts, StrategyKind::kRoundRobin,
       PlacementKind::kStallAvoiding},
      {ExecutionMode::kGts, StrategyKind::kSegment,
       PlacementKind::kStallAvoiding},
      {ExecutionMode::kOts, StrategyKind::kFifo,
       PlacementKind::kStallAvoiding},
      {ExecutionMode::kHmts, StrategyKind::kFifo,
       PlacementKind::kStallAvoiding},
      {ExecutionMode::kHmts, StrategyKind::kChain,
       PlacementKind::kChain},
      {ExecutionMode::kHmts, StrategyKind::kFifo,
       PlacementKind::kSegment},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Sorted(RunMode(c.mode, c.strategy, c.placement)), reference)
        << ExecutionModeToString(c.mode) << "/"
        << StrategyKindToString(c.strategy) << "/"
        << PlacementKindToString(c.placement);
  }
}

TEST(StreamEngineTest, QueueCountPerMode) {
  {
    PipelineFixture fx;
    StreamEngine engine(&fx.graph);
    EngineOptions opt;
    opt.mode = ExecutionMode::kSourceDriven;
    ASSERT_TRUE(engine.Configure(opt).ok());
    EXPECT_EQ(engine.queues().size(), 0u);
    EXPECT_EQ(engine.WorkerThreadCount(), 0u);
  }
  {
    PipelineFixture fx;
    StreamEngine engine(&fx.graph);
    EngineOptions opt;
    opt.mode = ExecutionMode::kDirect;
    ASSERT_TRUE(engine.Configure(opt).ok());
    EXPECT_EQ(engine.queues().size(), 1u) << "one queue after the source";
    EXPECT_EQ(engine.WorkerThreadCount(), 1u);
  }
  {
    PipelineFixture fx;
    StreamEngine engine(&fx.graph);
    EngineOptions opt;
    opt.mode = ExecutionMode::kGts;
    ASSERT_TRUE(engine.Configure(opt).ok());
    // Edges: src->sel, sel->map get queues; map->sink stays DI.
    EXPECT_EQ(engine.queues().size(), 2u);
    EXPECT_EQ(engine.WorkerThreadCount(), 1u);
  }
  {
    PipelineFixture fx;
    StreamEngine engine(&fx.graph);
    EngineOptions opt;
    opt.mode = ExecutionMode::kOts;
    ASSERT_TRUE(engine.Configure(opt).ok());
    EXPECT_EQ(engine.queues().size(), 2u);
    EXPECT_EQ(engine.WorkerThreadCount(), 2u) << "one thread per operator";
  }
}

TEST(StreamEngineTest, HmtsPlacementDecouplesSources) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = ExecutionMode::kHmts;
  ASSERT_TRUE(engine.Configure(opt).ok());
  ASSERT_NE(engine.partitioning(), nullptr);
  // The source sits alone; all cheap operators share one partition.
  EXPECT_GE(engine.queues().size(), 1u);
  EXPECT_GE(engine.WorkerThreadCount(), 1u);
  ASSERT_NE(engine.hmts(), nullptr);
}

TEST(StreamEngineTest, ConfigureTwiceFails) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  ASSERT_TRUE(engine.Configure(opt).ok());
  EXPECT_EQ(engine.Configure(opt).code(), StatusCode::kFailedPrecondition);
}

TEST(StreamEngineTest, StartRequiresConfigure) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EXPECT_EQ(engine.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamEngineTest, DeconfigureRestoresQueueFreeGraph) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = ExecutionMode::kGts;
  ASSERT_TRUE(engine.Configure(opt).ok());
  EXPECT_EQ(fx.graph.Queues().size(), 2u);
  ASSERT_TRUE(engine.Deconfigure().ok());
  EXPECT_TRUE(fx.graph.Queues().empty());
  EXPECT_TRUE(fx.graph.Validate().ok());
  // Can reconfigure in another mode.
  opt.mode = ExecutionMode::kOts;
  EXPECT_TRUE(engine.Configure(opt).ok());
}

TEST(StreamEngineTest, DeconfigureDrainsPendingElements) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = ExecutionMode::kGts;
  ASSERT_TRUE(engine.Configure(opt).ok());
  // Never started: elements pile up in the source queue.
  fx.src->Push(Tuple::OfInt(1, 1));
  fx.src->Push(Tuple::OfInt(500, 2));
  EXPECT_EQ(engine.QueuedElements(), 2u);
  ASSERT_TRUE(engine.Deconfigure().ok());
  // Draining pushed them through the whole pipeline.
  EXPECT_EQ(fx.sink->size(), 2u);
}

TEST(StreamEngineTest, SwitchGtsToOtsKeepsQueuesAndFinishes) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = ExecutionMode::kGts;
  ASSERT_TRUE(engine.Configure(opt).ok());
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(7);
  fx.PushRandom(&rng, 0, 500);
  const std::vector<QueueOp*> before = engine.queues();
  EngineOptions ots;
  ots.mode = ExecutionMode::kOts;
  ASSERT_TRUE(engine.SwitchTo(ots).ok());
  EXPECT_EQ(engine.queues(), before) << "same queue objects survive";
  fx.PushRandom(&rng, 500, 1000);
  fx.src->Close(1000);
  engine.WaitUntilFinished();
  EXPECT_EQ(fx.sink->size(), fx.expected_results);
}

TEST(StreamEngineTest, StructuralSwitchWithPausedSources) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = ExecutionMode::kOts;
  ASSERT_TRUE(engine.Configure(opt).ok());
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(7);
  fx.PushRandom(&rng, 0, 500);
  // Pause (no pushes during the switch), then re-place structurally.
  EngineOptions hmts;
  hmts.mode = ExecutionMode::kHmts;
  ASSERT_TRUE(engine.SwitchTo(hmts).ok());
  fx.PushRandom(&rng, 500, 1000);
  fx.src->Close(1000);
  engine.WaitUntilFinished();
  EXPECT_EQ(fx.sink->size(), fx.expected_results);
}

TEST(StreamEngineTest, SwitchAppliesEveryChangedOption) {
  // GTS -> OTS keeps the queues only when nothing but the executors
  // changes. A switch that also turns on checkpointing and batching must
  // take the structural path, so the new options actually run.
  size_t expected = 0;
  const auto reference = Sorted(RunMode(ExecutionMode::kSourceDriven,
                                        StrategyKind::kFifo,
                                        PlacementKind::kStallAvoiding,
                                        &expected));
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = ExecutionMode::kGts;
  ASSERT_TRUE(engine.Configure(opt).ok());
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(7);
  fx.PushRandom(&rng, 0, 500);
  EngineOptions ots = opt;
  ots.mode = ExecutionMode::kOts;
  ots.checkpoint_epoch_interval = 50;
  ots.emit_batch_size = 64;
  ASSERT_TRUE(engine.SwitchTo(ots).ok());
  EXPECT_NE(engine.recovery(), nullptr) << "checkpointing must be armed";
  for (Node* node : fx.graph.nodes()) {
    if (const Source* source = dynamic_cast<const Source*>(node)) {
      EXPECT_EQ(source->emit_batch_size(), 64u) << source->name();
    }
  }
  fx.PushRandom(&rng, 500, 1000);
  fx.src->Close(1000);
  engine.WaitUntilFinished();
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult();
  EXPECT_EQ(fx.expected_results, expected);
  EXPECT_EQ(Sorted(fx.sink->TakeResults()), reference);
}

TEST(StreamEngineTest, ResetForRerunAllowsFreshRun) {
  PipelineFixture fx;
  for (int run = 0; run < 2; ++run) {
    StreamEngine engine(&fx.graph);
    EngineOptions opt;
    opt.mode = ExecutionMode::kGts;
    ASSERT_TRUE(engine.Configure(opt).ok());
    ASSERT_TRUE(engine.Start().ok());
    fx.expected_results = 0;
    fx.Feed();
    engine.WaitUntilFinished();
    EXPECT_EQ(fx.sink->size(), fx.expected_results) << "run " << run;
    ASSERT_TRUE(engine.ResetForRerun().ok());
    EXPECT_EQ(fx.sink->size(), 0u);
  }
}

TEST(StreamEngineTest, SharedSubqueryAcrossModes) {
  // Two queries sharing a source and a selection (Figure 1 style).
  for (auto mode : {ExecutionMode::kGts, ExecutionMode::kOts,
                    ExecutionMode::kHmts}) {
    QueryGraph graph;
    QueryBuilder qb(&graph);
    Source* src = qb.AddSource("src");
    src->SetInterarrivalMicros(100.0);
    Node* shared = qb.Select(src, "shared",
                             Selection::IntAttrLessThan(500));
    shared->SetSelectivity(0.5);
    shared->SetCostMicros(1.0);
    Node* q1 = qb.Select(shared, "q1", Selection::IntAttrLessThan(100));
    q1->SetSelectivity(0.2);
    q1->SetCostMicros(1.0);
    Node* q2 = qb.Select(shared, "q2", [](const Tuple& t) {
      return t.IntAt(0) >= 100;
    });
    q2->SetSelectivity(0.8);
    q2->SetCostMicros(1.0);
    CountingSink* sink1 = qb.CountSink(q1, "sink1");
    CountingSink* sink2 = qb.CountSink(q2, "sink2");
    StreamEngine engine(&graph);
    EngineOptions opt;
    opt.mode = mode;
    ASSERT_TRUE(engine.Configure(opt).ok());
    ASSERT_TRUE(engine.Start().ok());
    for (int i = 0; i < 1000; ++i) src->Push(Tuple::OfInt(i % 1000, i));
    src->Close(1000);
    engine.WaitUntilFinished();
    EXPECT_EQ(sink1->count(), 100) << ExecutionModeToString(mode);
    EXPECT_EQ(sink2->count(), 400) << ExecutionModeToString(mode);
  }
}

TEST(StreamEngineTest, JoinQueryUnderAllScheduledModes) {
  for (auto mode : {ExecutionMode::kGts, ExecutionMode::kOts,
                    ExecutionMode::kHmts}) {
    QueryGraph graph;
    QueryBuilder qb(&graph);
    Source* left = qb.AddSource("left");
    Source* right = qb.AddSource("right");
    left->SetInterarrivalMicros(100.0);
    right->SetInterarrivalMicros(100.0);
    Node* join = qb.HashJoin(left, right, "join", /*window=*/1'000'000);
    CollectingSink* sink = qb.CollectSink(join, "sink");
    StreamEngine engine(&graph);
    EngineOptions opt;
    opt.mode = mode;
    ASSERT_TRUE(engine.Configure(opt).ok());
    ASSERT_TRUE(engine.Start().ok());
    // Drive both sources from separate threads (autonomous sources).
    RateSource::Options ropt;
    ropt.phases = {{500, 0.0}};
    ropt.seed = 1;
    RateSource left_driver(left, ropt, RateSource::UniformInt(0, 49));
    ropt.seed = 2;
    RateSource right_driver(right, ropt, RateSource::UniformInt(0, 49));
    left_driver.Start();
    right_driver.Start();
    left_driver.Join();
    right_driver.Join();
    engine.WaitUntilFinished();
    // ~500*500/50 = 5000 expected matches; exact count is deterministic
    // given the seeds but we only check plausibility and cross-mode use.
    EXPECT_GT(sink->size(), 3000u) << ExecutionModeToString(mode);
  }
}

// The engine places one queue per cross edge, so every placed queue has a
// single producer and gets a ring — including queues in front of a
// two-input join — except when a kShedOldest bound (which pops the head
// on the producer side) or a ring capacity of 0 leaves it ring-less.
TEST(StreamEngineTest, EveryPlacedQueueHasOneInputAndARing) {
  struct Case {
    size_t max_elements;
    OverloadPolicy policy;
    size_t ring_capacity;
    bool want_ring;
  };
  const Case cases[] = {
      {0, OverloadPolicy::kBlock, QueueOp::kDefaultRingCapacity, true},
      {64, OverloadPolicy::kBlock, QueueOp::kDefaultRingCapacity, true},
      {64, OverloadPolicy::kShedNewest, QueueOp::kDefaultRingCapacity, true},
      {64, OverloadPolicy::kShedOldest, QueueOp::kDefaultRingCapacity, false},
      {0, OverloadPolicy::kBlock, 0, false},
  };
  for (auto mode : {ExecutionMode::kDirect, ExecutionMode::kGts,
                    ExecutionMode::kOts, ExecutionMode::kHmts}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(ExecutionModeToString(mode)) + " bound " +
                   std::to_string(c.max_elements) + ":" +
                   OverloadPolicyToString(c.policy) + " ring " +
                   std::to_string(c.ring_capacity));
      QueryGraph graph;
      QueryBuilder qb(&graph);
      Source* left = qb.AddSource("left");
      Source* right = qb.AddSource("right");
      Node* join = qb.HashJoin(left, right, "join", /*window=*/1000);
      Node* keep = qb.Select(join, "keep", [](const Tuple&) { return true; });
      qb.CountSink(keep, "sink");
      StreamEngine engine(&graph);
      EngineOptions opt;
      opt.mode = mode;
      opt.queue_max_elements = c.max_elements;
      opt.overload_policy = c.policy;
      opt.queue_ring_capacity = c.ring_capacity;
      ASSERT_TRUE(engine.Configure(opt).ok());
      ASSERT_FALSE(engine.queues().empty());
      for (const QueueOp* queue : engine.queues()) {
        EXPECT_EQ(queue->inputs().size(), 1u) << queue->name();
        EXPECT_EQ(queue->has_ring(), c.want_ring) << queue->name();
      }
    }
  }
}

// Every scheduled mode runs on the one HmtsExecutor: it exists in each
// mode, owns one worker thread per partition, and restarts after Stop
// (watchdog included) without losing queued elements.
class EngineExecutorTest : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(EngineExecutorTest, RestartAfterStopReturnsEveryResult) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions opt;
  opt.mode = GetParam();
  opt.ts.watchdog_interval = std::chrono::milliseconds(500);
  ASSERT_TRUE(engine.Configure(opt).ok());
  ASSERT_NE(engine.hmts(), nullptr);
  EXPECT_EQ(engine.WorkerThreadCount(), engine.hmts()->partition_count());
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(11);
  fx.PushRandom(&rng, 0, 500);
  engine.Stop();
  EXPECT_FALSE(engine.started());
  ASSERT_TRUE(engine.Start().ok());
  fx.PushRandom(&rng, 500, 1000);
  fx.src->Close(1000);
  engine.WaitUntilFinished();
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  EXPECT_EQ(fx.sink->size(), fx.expected_results);
  EXPECT_EQ(engine.hmts()->thread_scheduler().stall_events(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    ScheduledModes, EngineExecutorTest,
    ::testing::Values(ExecutionMode::kDirect, ExecutionMode::kGts,
                      ExecutionMode::kOts, ExecutionMode::kHmts),
    [](const ::testing::TestParamInfo<ExecutionMode>& info) {
      return std::string(ExecutionModeToString(info.param));
    });

}  // namespace
}  // namespace flexstream
