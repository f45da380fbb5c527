// Checkpoint & replay recovery (src/recovery/): epoch barriers, snapshot
// alignment, replay buffers, and end-to-end kill -> rewind -> replay ->
// resume through the StreamEngine.
//
// Runs under the `check-recovery` CMake target (ctest -R "Recovery").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "graph/query_graph.h"
#include "operators/aggregate.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/symmetric_hash_join.h"
#include "recovery/recovery_manager.h"
#include "recovery/replay_buffer.h"
#include "recovery/state_snapshot.h"
#include "stats/report.h"
#include "testing/chaos.h"
#include "tuple/tuple.h"
#include "util/clock.h"

namespace flexstream {
namespace {

constexpr auto kWait = std::chrono::seconds(60);

TEST(EpochBarrierTupleTest, KindEpochAndPrinting) {
  const Tuple barrier = Tuple::EpochBarrier(7);
  EXPECT_TRUE(barrier.is_barrier());
  EXPECT_FALSE(barrier.is_data());
  EXPECT_FALSE(barrier.is_eos());
  EXPECT_EQ(barrier.epoch(), 7u);
  EXPECT_NE(barrier.ToString().find("BARRIER"), std::string::npos);

  EXPECT_FALSE(Tuple::OfInt(1).is_barrier());
  EXPECT_FALSE(Tuple::EndOfStream().is_barrier());
}

TEST(SourceEpochTest, InjectsBarrierEveryInterval) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CollectingSink* sink = qb.CollectSink(src, "sink");

  std::shared_mutex gate;
  ReplayBuffer buffer(src, 0);
  src->ArmEpochs(3, &buffer, &gate);
  EXPECT_TRUE(src->epochs_armed());
  EXPECT_EQ(src->current_epoch(), 1u);

  for (int i = 0; i < 7; ++i) src->Push(Tuple::OfInt(i, i + 1));
  // 7 pushes at interval 3: barriers after elements 3 and 6.
  EXPECT_EQ(src->current_epoch(), 3u);
  EXPECT_EQ(buffer.depth(), 7u);
  src->Close(7);
  EXPECT_EQ(sink->size(), 7u);  // barriers are not data
}

TEST(ReplayBufferTest, RecordsTrimsAndReplays) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CollectingSink* sink = qb.CollectSink(src, "sink");

  std::shared_mutex gate;
  ReplayBuffer buffer(src, 0);
  src->ArmEpochs(2, &buffer, &gate);
  for (int i = 0; i < 6; ++i) src->Push(Tuple::OfInt(i, i + 1));
  src->Close(6);
  EXPECT_EQ(buffer.depth(), 6u);
  EXPECT_EQ(buffer.peak_depth(), 6u);

  // Epochs 1..3 hold two elements each; committing epoch 1 trims its two.
  buffer.TrimThrough(1);
  EXPECT_EQ(buffer.depth(), 4u);

  // Rewind to the committed boundary and replay: the four retained
  // elements (and the Close) are re-emitted straight from the buffer.
  sink->TakeResults();
  graph.ResetAll();
  src->RewindTo(1);
  EXPECT_EQ(src->current_epoch(), 2u);
  buffer.Replay();
  EXPECT_EQ(buffer.depth(), 4u);  // replay retains (for a second failure)
  EXPECT_EQ(buffer.replayed_elements(), 4);
  const std::vector<Tuple> replayed = sink->TakeResults();
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_EQ(replayed[0], Tuple::OfInt(2, 3));
  EXPECT_TRUE(src->closed_by_driver());
}

TEST(ReplayBufferTest, OverflowMarksTruncated) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  qb.CollectSink(src, "sink");

  std::shared_mutex gate;
  ReplayBuffer buffer(src, 4);
  src->ArmEpochs(100, &buffer, &gate);
  for (int i = 0; i < 10; ++i) src->Push(Tuple::OfInt(i, i + 1));
  EXPECT_TRUE(buffer.truncated());
  EXPECT_EQ(buffer.depth(), 4u);  // stops recording at the cap
}

TEST(StatefulOperatorTest, HashJoinSnapshotRestoreRoundTrips) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricHashJoin* join = qb.HashJoin(left, right, "join", 1000);
  CollectingSink* sink = qb.CollectSink(join, "sink");

  left->Push(Tuple::OfInt(1, 10));
  left->Push(Tuple::OfInt(2, 11));
  right->Push(Tuple::OfInt(1, 12));  // joins with left #1
  ASSERT_EQ(sink->size(), 1u);

  auto* stateful = dynamic_cast<StatefulOperator*>(join);
  ASSERT_NE(stateful, nullptr);
  OperatorSnapshot snap = stateful->SnapshotState();
  EXPECT_EQ(snap.element_count, 3);

  // Mutate past the snapshot, then restore: the extra right element must
  // be gone, so a probing push joins only against the snapshot contents.
  right->Push(Tuple::OfInt(2, 13));
  ASSERT_EQ(sink->size(), 2u);
  stateful->RestoreState(snap);
  sink->TakeResults();
  right->Push(Tuple::OfInt(2, 14));
  // Snapshot held left {1,2} and right {1}: a right 2 joins once.
  EXPECT_EQ(sink->TakeResults().size(), 1u);
}

TEST(StatefulOperatorTest, SinksSnapshotAndTruncate) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CollectingSink* collect = qb.CollectSink(src, "collect");
  CountingSink* count = qb.CountSink(src, "count");

  for (int i = 0; i < 5; ++i) src->Push(Tuple::OfInt(i, i + 1));
  auto* collect_state = dynamic_cast<StatefulOperator*>(collect);
  auto* count_state = dynamic_cast<StatefulOperator*>(count);
  ASSERT_NE(collect_state, nullptr);
  ASSERT_NE(count_state, nullptr);
  OperatorSnapshot collect_snap = collect_state->SnapshotState();
  OperatorSnapshot count_snap = count_state->SnapshotState();
  EXPECT_EQ(collect_snap.element_count, 5);
  EXPECT_EQ(count_snap.element_count, 5);

  for (int i = 5; i < 9; ++i) src->Push(Tuple::OfInt(i, i + 1));
  EXPECT_EQ(count->count(), 9);
  collect_state->RestoreState(collect_snap);
  count_state->RestoreState(count_snap);
  // Restore truncates back to the epoch boundary — exact dedup when the
  // post-snapshot suffix is replayed.
  EXPECT_EQ(collect->size(), 5u);
  EXPECT_EQ(count->count(), 5);
}

TEST(StatefulOperatorTest, WindowedAggregateRoundTrips) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  WindowedAggregate::Options options;
  options.window_micros = 1000;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", options);
  CollectingSink* sink = qb.CollectSink(agg, "sink");

  for (int i = 0; i < 4; ++i) src->Push(Tuple::OfInt(1, i + 1));
  auto* stateful = dynamic_cast<StatefulOperator*>(agg);
  ASSERT_NE(stateful, nullptr);
  OperatorSnapshot snap = stateful->SnapshotState();

  for (int i = 4; i < 8; ++i) src->Push(Tuple::OfInt(1, i + 1));
  stateful->RestoreState(snap);
  sink->TakeResults();
  // Re-push the suffix: the restored operator must emit exactly what the
  // original did for those elements.
  for (int i = 4; i < 8; ++i) src->Push(Tuple::OfInt(1, i + 1));
  EXPECT_EQ(sink->TakeResults().size(), 4u);
}

// -- End-to-end engine recovery ------------------------------------------

/// Pass-through that runs `hook` once, in the delivering thread, on the
/// first element after it is set.
class HookOp : public Operator {
 public:
  explicit HookOp(std::string name)
      : Operator(Kind::kOperator, std::move(name), 1) {}
  std::function<void()> hook;

 protected:
  void Process(const Tuple& tuple, int) override {
    if (hook) std::exchange(hook, nullptr)();
    Emit(tuple);
  }
};

TEST(RecoveryReplayRaceTest, LivePushDuringReplayWaitsForResume) {
  QueryGraph graph;
  Source* src = graph.Add<Source>("src");
  HookOp* hook_op = graph.Add<HookOp>("hook");
  CollectingSink* sink = graph.Add<CollectingSink>("sink");
  ASSERT_TRUE(graph.Connect(src, hook_op).ok());
  ASSERT_TRUE(graph.Connect(hook_op, sink).ok());
  RecoveryManager::Options options;
  options.epoch_interval = 1000;  // no commit: replay re-pushes everything
  RecoveryManager recovery(options);
  ASSERT_TRUE(recovery.Arm(&graph).ok());
  const int kPushed = 10;
  for (int i = 0; i < kPushed; ++i) src->Push(Tuple::OfInt(i, i + 1));

  // On the first replayed element — replay has begun, in this thread — a
  // live driver pushes the next element. It must wait at the gate until
  // ResumeSources; a push that bypassed the gate returns within the wait.
  std::atomic<bool> live_returned{false};
  bool returned_during_replay = false;
  std::thread live;
  hook_op->hook = [&] {
    live = std::thread([&] {
      src->Push(Tuple::OfInt(kPushed, kPushed + 1));
      live_returned.store(true);
    });
    const TimePoint deadline = Now() + std::chrono::milliseconds(200);
    while (!live_returned.load() && Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    returned_during_replay = live_returned.load();
  };
  recovery.PauseSources();
  recovery.RestoreCommittedState();
  recovery.ReplaySources();
  ASSERT_TRUE(live.joinable()) << "replay never reached the hook";
  EXPECT_FALSE(returned_during_replay)
      << "a live Push ran during replay, bypassing the recovery gate";
  recovery.ResumeSources();
  live.join();
  src->Close(kPushed + 1);

  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kPushed + 1));
  for (int i = 0; i <= kPushed; ++i) EXPECT_EQ(results[i].IntAt(0), i);
  EXPECT_EQ(recovery.replay_depth(), static_cast<size_t>(kPushed + 1))
      << "the live push was recorded for replay";
}

// Batch-granular ingest: pending elements have not entered the graph, so
// recovery leaves the driver's pending batch alone. A live driver keeps
// accumulating while recovery holds the gate; its next flush waits, and
// lands after the replayed batches.
TEST(RecoveryReplayRaceTest, PendingBatchFlushesAfterReplay) {
  QueryGraph graph;
  Source* src = graph.Add<Source>("src");
  HookOp* hook_op = graph.Add<HookOp>("hook");
  CollectingSink* sink = graph.Add<CollectingSink>("sink");
  ASSERT_TRUE(graph.Connect(src, hook_op).ok());
  ASSERT_TRUE(graph.Connect(hook_op, sink).ok());
  VirtualClock clock;  // never advances: batches flush only when full
  src->SetLingerClock(&clock);
  src->SetEmitBatchSize(4);
  RecoveryManager::Options options;
  options.epoch_interval = 1000;  // no commit: replay re-emits everything
  RecoveryManager recovery(options);
  ASSERT_TRUE(recovery.Arm(&graph).ok());
  // Two full batches flush; elements 8 and 9 stay pending in the source.
  for (int i = 0; i < 10; ++i) src->Push(Tuple::OfInt(i, i + 1));
  EXPECT_EQ(recovery.replay_depth(), 8u) << "pending elements are recorded "
                                            "when their batch flushes";

  // On the first replayed element, a live driver pushes two more: the
  // first only accumulates (it returns during the replay), the second
  // fills the batch and its flush waits at the gate until ResumeSources.
  std::atomic<int> live_pushed{0};
  int pushed_during_replay = 0;
  std::thread live;
  hook_op->hook = [&] {
    live = std::thread([&] {
      for (int i = 10; i < 12; ++i) {
        src->Push(Tuple::OfInt(i, i + 1));
        live_pushed.fetch_add(1);
      }
    });
    const TimePoint deadline = Now() + std::chrono::milliseconds(200);
    while (live_pushed.load() < 2 && Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pushed_during_replay = live_pushed.load();
  };
  recovery.PauseSources();
  recovery.RestoreCommittedState();
  recovery.ReplaySources();
  ASSERT_TRUE(live.joinable()) << "replay never reached the hook";
  EXPECT_EQ(pushed_during_replay, 1)
      << "accumulating must not wait for recovery; flushing must";
  recovery.ResumeSources();
  live.join();
  src->Close(12);

  // The replayed 0..7, then the pending 8, 9 with the live 10, 11: every
  // element once, in order.
  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(results[i].IntAt(0), i);
  EXPECT_EQ(recovery.replayed_elements(), 8);
  EXPECT_EQ(recovery.replay_depth(), 12u);
}

struct Pipeline {
  std::unique_ptr<QueryGraph> graph;
  Source* source = nullptr;
  Source* source2 = nullptr;
  CollectingSink* sink = nullptr;
};

/// source -> select -> join(source2) -> sink: stateful (join) plus a
/// kill-able middle operator ("sel").
Pipeline BuildPipeline() {
  Pipeline p;
  p.graph = std::make_unique<QueryGraph>();
  QueryBuilder qb(p.graph.get());
  p.source = qb.AddSource("src");
  p.source2 = qb.AddSource("src2");
  Selection* sel = qb.Select(p.source, "sel",
                             [](const Tuple&) { return true; });
  SymmetricHashJoin* join =
      qb.HashJoin(sel, p.source2, "join", 1'000'000'000);
  p.sink = qb.CollectSink(join, "sink");
  return p;
}

void Feed(const Pipeline& p, int count) {
  for (int i = 0; i < count; ++i) {
    p.source->Push(Tuple::OfInt(i % 10, i + 1));
    p.source2->Push(Tuple::OfInt(i % 10, i + 1));
  }
  p.source->Close(count);
  p.source2->Close(count);
}

std::vector<Tuple> SortedGolden(int feed) {
  Pipeline p = BuildPipeline();
  Feed(p, feed);
  std::vector<Tuple> golden = p.sink->TakeResults();
  std::sort(golden.begin(), golden.end());
  return golden;
}

TEST(EngineCheckpointTest, EpochsOnMatchesEpochsOff) {
  const int kFeed = 200;
  const std::vector<Tuple> golden = SortedGolden(kFeed);

  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = 25;
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  Feed(p, kFeed);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok());

  ASSERT_NE(engine.recovery(), nullptr);
  EXPECT_GT(engine.recovery()->coordinator().epochs_committed(), 0);
  EXPECT_GT(engine.recovery()->coordinator().snapshots_taken(), 0);
  EXPECT_EQ(engine.recovery()->completed_recoveries(), 0);

  std::vector<Tuple> got = p.sink->TakeResults();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, golden);
}

TEST(EngineRecoveryTest, KillRecoverResumeMatchesGolden) {
  const int kFeed = 200;
  const std::vector<Tuple> golden = SortedGolden(kFeed);

  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = 25;
  ASSERT_TRUE(engine.Configure(options).ok());

  ChaosOptions chaos_options;
  chaos_options.kill_operator = "sel";
  chaos_options.kill_after = 60;
  ChaosInjector chaos(chaos_options);
  chaos.Arm(p.graph.get(), engine.queues());

  ASSERT_TRUE(engine.Start().ok());
  Feed(p, kFeed);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  EXPECT_EQ(chaos.permanent_injections(), 1);
  ASSERT_NE(engine.recovery(), nullptr);
  EXPECT_EQ(engine.recovery()->completed_recoveries(), 1);
  EXPECT_GT(engine.recovery()->replayed_elements(), 0);

  std::vector<Tuple> got = p.sink->TakeResults();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, golden);

  // The recovery stats table reflects the run.
  const Table table = BuildRecoveryTable(*engine.recovery());
  EXPECT_GT(table.row_count(), 0u);
}

// A kill that lands while the source holds a partial pending batch: the
// driver pushes three elements past the last flush, the engine recovers
// with them still pending, and the run still delivers every element
// exactly once, in order.
TEST(EngineRecoveryTest, KillWithPartialPendingBatchRecoversExactly) {
  constexpr int kFeed = 200;
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  Selection* sel = qb.Select(src, "sel", [](const Tuple&) { return true; });
  CollectingSink* sink = qb.CollectSink(sel, "sink");
  VirtualClock clock;  // never advances: batches flush only when full
  src->SetLingerClock(&clock);

  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.emit_batch_size = 8;
  options.checkpoint_epoch_interval = 16;  // barriers cut full batches only
  ASSERT_TRUE(engine.Configure(options).ok());
  ChaosOptions chaos_options;
  chaos_options.kill_operator = "sel";
  chaos_options.kill_after = 20;
  ChaosInjector chaos(chaos_options);
  chaos.Arm(&graph, engine.queues());
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<bool> pending{false};
  std::thread driver([&] {
    int i = 0;
    for (; i < 24; ++i) src->Push(Tuple::OfInt(i, i + 1));  // 3 batches
    const TimePoint deadline = Now() + kWait;
    while (chaos.permanent_injections() == 0 && Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (; i < 27; ++i) src->Push(Tuple::OfInt(i, i + 1));  // pending
    pending.store(true);
    while (engine.recovery()->completed_recoveries() == 0 &&
           Now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (; i < kFeed; ++i) src->Push(Tuple::OfInt(i, i + 1));
    src->Close(kFeed);
  });
  while (!pending.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  driver.join();
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  EXPECT_EQ(chaos.permanent_injections(), 1);
  EXPECT_EQ(engine.recovery()->completed_recoveries(), 1);

  const std::vector<Tuple> results = sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kFeed));
  for (int i = 0; i < kFeed; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

TEST(EngineRecoveryTest, DoubleKillRecoversTwice) {
  const int kFeed = 200;
  const std::vector<Tuple> golden = SortedGolden(kFeed);

  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kHmts;
  options.checkpoint_epoch_interval = 25;
  ASSERT_TRUE(engine.Configure(options).ok());

  ChaosOptions chaos_options;
  chaos_options.kill_operator = "sel";
  chaos_options.kill_after = 40;
  chaos_options.kills = 2;
  ChaosInjector chaos(chaos_options);
  chaos.Arm(p.graph.get(), engine.queues());

  ASSERT_TRUE(engine.Start().ok());
  Feed(p, kFeed);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  EXPECT_EQ(chaos.permanent_injections(), 2);
  ASSERT_NE(engine.recovery(), nullptr);
  EXPECT_EQ(engine.recovery()->completed_recoveries(), 2);

  std::vector<Tuple> got = p.sink->TakeResults();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, golden);
}

TEST(EngineRecoveryTest, ExhaustedAttemptBudgetAborts) {
  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = 25;
  options.max_recovery_attempts = 1;
  ASSERT_TRUE(engine.Configure(options).ok());

  ChaosOptions chaos_options;
  chaos_options.kill_operator = "sel";
  chaos_options.kill_after = 30;
  chaos_options.kills = 5;  // more deaths than the attempt budget
  ChaosInjector chaos(chaos_options);
  chaos.Arm(p.graph.get(), engine.queues());

  ASSERT_TRUE(engine.Start().ok());
  Feed(p, 200);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  // The second death exceeds the budget: the run surfaces the failure
  // instead of looping forever.
  EXPECT_FALSE(engine.RunResult().ok());
  EXPECT_NE(engine.RunResult().message().find("sel"), std::string::npos);
  EXPECT_EQ(engine.recovery()->attempts(), 1);
}

TEST(EngineRecoveryTest, TruncatedReplayBufferDisqualifiesRecovery) {
  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = 1'000'000;  // nothing ever commits
  options.replay_buffer_max_elements = 8;
  ASSERT_TRUE(engine.Configure(options).ok());

  ChaosOptions chaos_options;
  chaos_options.kill_operator = "sel";
  chaos_options.kill_after = 50;
  ChaosInjector chaos(chaos_options);
  chaos.Arm(p.graph.get(), engine.queues());

  ASSERT_TRUE(engine.Start().ok());
  Feed(p, 200);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_FALSE(engine.RunResult().ok());
  EXPECT_TRUE(engine.recovery()->any_buffer_truncated());
  EXPECT_EQ(engine.recovery()->completed_recoveries(), 0);
}

TEST(RetryBackoffTest, JitteredBackoffAbsorbsTransients) {
  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.retry_backoff.base_micros = 2.0;
  options.retry_backoff.cap_micros = 64.0;
  options.retry_backoff.jitter = 0.5;
  options.retry_backoff.seed = 7;
  ASSERT_TRUE(engine.Configure(options).ok());

  ChaosOptions chaos_options;
  chaos_options.transient_rate = 0.05;
  ChaosInjector chaos(chaos_options);
  chaos.Arm(p.graph.get(), engine.queues());

  ASSERT_TRUE(engine.Start().ok());
  const int kFeed = 200;
  Feed(p, kFeed);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();
  EXPECT_GT(chaos.transient_injections(), 0);

  std::vector<Tuple> got = p.sink->TakeResults();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, SortedGolden(kFeed));
}

}  // namespace
}  // namespace flexstream
