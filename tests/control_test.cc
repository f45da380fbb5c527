// Closed-loop SLO control (src/control/, DESIGN.md §15): the degradation
// ladder's escalation order, the hysteresis machinery that makes it
// provably non-oscillating (EWMA smoothing, action-free band, calm
// streaks, minimum dwell), recovery suspension, lever retirement on
// structural refusals, exact shed accounting, the decision log and its
// table rendering, the engine's live actuation hooks, the structured
// SwitchTo/ResizeShard refusals, and the state-carrying live reshard.
//
// All ladder-property tests drive control intervals through a
// VirtualClock — no sleeps, fully deterministic.
//
// Runs under the `check-control` CMake target
// (ctest -R "SloController|ControlLadder|ControlTable|ControlReshard|EngineActuation|SwitchToRefusal|ResizeShardRefusal|ControlSim").

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "api/shard.h"
#include "api/stream_engine.h"
#include "control/engine_hooks.h"
#include "control/slo_controller.h"
#include "graph/query_graph.h"
#include "operators/aggregate.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "sim/simulator.h"
#include "stats/report.h"
#include "tuple/tuple.h"
#include "util/clock.h"

namespace flexstream {
namespace {

constexpr auto kWait = std::chrono::seconds(60);

// ---------------------------------------------------------------------------
// Fakes for the virtual-time ladder tests.

class FakeProbe : public MetricsProbe {
 public:
  ControlMetrics next;
  int64_t samples = 0;

  ControlMetrics Sample() override {
    ++samples;
    return next;
  }
};

class FakeActuator : public Actuator {
 public:
  bool recovering_flag = false;
  Status threads_result = Status::Ok();
  Status batch_result = Status::Ok();
  Status shards_result = Status::Ok();
  Status shed_result = Status::Ok();
  std::vector<std::string> calls;

  bool recovering() const override { return recovering_flag; }
  Status SetMaxThreads(int n) override {
    calls.push_back("threads=" + std::to_string(n));
    return threads_result;
  }
  Status SetBatchSize(size_t n) override {
    calls.push_back("batch=" + std::to_string(n));
    return batch_result;
  }
  Status SetShards(size_t n) override {
    calls.push_back("shards=" + std::to_string(n));
    return shards_result;
  }
  Status SetShedding(bool on) override {
    calls.push_back(on ? "shed=on" : "shed=off");
    return shed_result;
  }

  int CallsWithPrefix(const std::string& prefix) const {
    int n = 0;
    for (const std::string& call : calls) {
      if (call.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }
};

/// Options tuned so every ladder transition is reachable in a handful of
/// virtual ticks: alpha 1 (no smoothing lag), SLO 1000us, band floor
/// 500us, two calm intervals + 1s dwell to step down, heavy rungs after
/// three consecutive breach intervals.
SloOptions LadderOptions() {
  SloOptions o;
  o.target_p99_micros = 1000.0;
  o.control_interval = std::chrono::milliseconds(500);
  o.ewma_alpha = 1.0;
  o.deescalate_fraction = 0.5;
  o.deescalate_intervals = 2;
  o.min_dwell = std::chrono::seconds(1);
  o.base_threads = 1;
  o.max_threads = 4;
  o.base_batch_size = 1;
  o.max_batch_size = 16;
  o.base_shards = 2;
  o.max_shards = 4;
  o.allow_reshard = true;
  o.allow_shedding = true;
  o.heavy_rung_patience = 3;
  return o;
}

struct LadderRig {
  FakeProbe probe;
  FakeActuator actuator;
  VirtualClock clock;
  SloController controller;

  explicit LadderRig(const SloOptions& options)
      : controller(options, &probe, &actuator, &clock) {}

  ControlDecision Tick() {
    clock.Advance(controller.options().control_interval);
    return controller.TickOnce();
  }
};

// ---------------------------------------------------------------------------
// Escalation.

TEST(SloControllerTest, EscalatesThroughLadderInOrder) {
  LadderRig rig(LadderOptions());
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;  // 4x the SLO, persistent

  for (int i = 0; i < 7; ++i) rig.Tick();

  // threads double to the cap, then batch x4 to the cap, then (after
  // three consecutive breach intervals) reshard, then shedding — last.
  EXPECT_EQ(rig.actuator.calls,
            (std::vector<std::string>{"threads=2", "threads=4", "batch=4",
                                      "batch=16", "shards=4", "shed=on"}));
  EXPECT_EQ(rig.controller.current_rung(), 4);
  EXPECT_EQ(rig.controller.actions_taken(), 6);

  // Saturated ladder: further breach intervals change nothing.
  rig.Tick();
  rig.Tick();
  EXPECT_EQ(rig.controller.actions_taken(), 6);
}

TEST(SloControllerTest, HeavyRungsWaitForPersistentOverload) {
  SloOptions o = LadderOptions();
  o.base_threads = o.max_threads;        // rung 1 exhausted from the start
  o.base_batch_size = o.max_batch_size;  // rung 2 exhausted from the start
  LadderRig rig(o);
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;

  // Two breach intervals: nothing actuated yet — a transient spike must
  // never reshard or shed.
  rig.Tick();
  ControlDecision d = rig.Tick();
  EXPECT_TRUE(rig.actuator.calls.empty());
  EXPECT_NE(d.action.find("await persistence"), std::string::npos);
  // The third consecutive breach unlocks the heavy rungs.
  rig.Tick();
  EXPECT_EQ(rig.actuator.calls,
            (std::vector<std::string>{"shards=4"}));
}

TEST(SloControllerTest, StalledPipelineCountsAsBreach) {
  LadderRig rig(LadderOptions());
  rig.probe.next.interval_count = 0;  // nothing completing...
  rig.probe.next.backlog = 5000;      // ...but work is piling up

  ControlDecision d = rig.Tick();
  EXPECT_NE(d.trigger.find("stalled"), std::string::npos);
  EXPECT_EQ(rig.actuator.calls,
            (std::vector<std::string>{"threads=2"}));
}

TEST(SloControllerTest, RefusedThreadLeverRetiresAndFallsThrough) {
  LadderRig rig(LadderOptions());
  rig.actuator.threads_result =
      Status::FailedPrecondition("execution mode is gts");
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;

  ControlDecision d = rig.Tick();
  // Same interval: refusal logged, next lever actuated.
  EXPECT_NE(d.action.find("threads refused"), std::string::npos);
  EXPECT_NE(d.action.find("batch 1->4"), std::string::npos);
  rig.Tick();
  rig.Tick();
  // The dead lever is never retried.
  EXPECT_EQ(rig.actuator.CallsWithPrefix("threads="), 1);
  EXPECT_GE(rig.actuator.CallsWithPrefix("batch="), 2);
}

// ---------------------------------------------------------------------------
// Hysteresis / no-oscillation.

TEST(SloControllerTest, ZeroActionsAfterConvergenceUnderSteadyLoad) {
  LadderRig rig(LadderOptions());
  // Breach until the first escalation "fixes" the latency into the band.
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;
  rig.Tick();
  ASSERT_EQ(rig.controller.actions_taken(), 1);

  // Steady load inside the hysteresis band [500, 1000]: converged.
  rig.probe.next.interval_p99_micros = 800.0;
  for (int i = 0; i < 50; ++i) rig.Tick();
  EXPECT_EQ(rig.controller.actions_taken(), 1) << "controller oscillated";
  EXPECT_EQ(rig.controller.current_rung(), 1);
}

TEST(SloControllerTest, SteadyCalmAtBaselineNeverActs) {
  LadderRig rig(LadderOptions());
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 100.0;
  for (int i = 0; i < 50; ++i) rig.Tick();
  EXPECT_EQ(rig.controller.actions_taken(), 0);
  EXPECT_EQ(rig.controller.current_rung(), 0);
}

TEST(ControlLadderTest, SquareWaveLoadBoundsTotalActions) {
  // 20 breach intervals, then 20 in-band intervals, five cycles. The
  // ladder escalates (at most its full height) during the first breach
  // phase and holds everywhere else — later breach phases find the levers
  // already engaged, and the in-band phases never de-escalate. Total
  // actions are bounded by the ladder height, not by the edge count.
  LadderRig rig(LadderOptions());
  for (int cycle = 0; cycle < 5; ++cycle) {
    rig.probe.next.interval_count = 100;
    rig.probe.next.interval_p99_micros = 4000.0;
    for (int i = 0; i < 20; ++i) rig.Tick();
    rig.probe.next.interval_p99_micros = 800.0;  // in band: no action
    for (int i = 0; i < 20; ++i) rig.Tick();
  }
  EXPECT_LE(rig.controller.actions_taken(), 6);
}

TEST(ControlLadderTest, EscalateThenDeescalateWalksReverseOrder) {
  LadderRig rig(LadderOptions());
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;
  for (int i = 0; i < 7; ++i) rig.Tick();
  ASSERT_EQ(rig.controller.current_rung(), 4);
  const size_t up_actions = rig.actuator.calls.size();

  // Deep calm: one rung per calm window (2 intervals), reverse order,
  // completeness restored first.
  rig.probe.next.interval_p99_micros = 100.0;
  for (int i = 0; i < 30; ++i) rig.Tick();
  const std::vector<std::string> down(
      rig.actuator.calls.begin() + static_cast<long>(up_actions),
      rig.actuator.calls.end());
  EXPECT_EQ(down,
            (std::vector<std::string>{"shed=off", "shards=2", "batch=4",
                                      "batch=1", "threads=2", "threads=1"}));
  EXPECT_EQ(rig.controller.current_rung(), 0);

  // Fully de-escalated and still calm: the action stream stops.
  const int64_t settled = rig.controller.actions_taken();
  for (int i = 0; i < 20; ++i) rig.Tick();
  EXPECT_EQ(rig.controller.actions_taken(), settled);
}

TEST(SloControllerTest, MinimumDwellDelaysDeescalation) {
  SloOptions o = LadderOptions();
  o.min_dwell = std::chrono::seconds(10);  // 20 control intervals
  LadderRig rig(o);
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;
  rig.Tick();
  ASSERT_EQ(rig.controller.actions_taken(), 1);

  rig.probe.next.interval_p99_micros = 100.0;  // deep calm immediately
  bool saw_dwell_hold = false;
  for (int i = 0; i < 19; ++i) {
    ControlDecision d = rig.Tick();
    if (d.action.find("dwell") != std::string::npos) saw_dwell_hold = true;
  }
  // 19 intervals = 9.5s since the action: still inside the dwell.
  EXPECT_EQ(rig.controller.actions_taken(), 1);
  EXPECT_TRUE(saw_dwell_hold);
  // Two more intervals cross the 10s dwell; calm streak is long since met.
  rig.Tick();
  rig.Tick();
  EXPECT_EQ(rig.controller.actions_taken(), 2);
  EXPECT_EQ(rig.actuator.calls.back(), "threads=1");
}

TEST(SloControllerTest, EwmaSmoothingAbsorbsOneNoisySpike) {
  SloOptions o = LadderOptions();
  o.ewma_alpha = 0.3;
  LadderRig rig(o);
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 600.0;
  for (int i = 0; i < 10; ++i) rig.Tick();  // smoothed settles at 600

  rig.probe.next.interval_p99_micros = 1800.0;  // one noisy interval
  rig.Tick();                                   // smoothed: 600+0.3*1200=960
  rig.probe.next.interval_p99_micros = 600.0;
  rig.Tick();
  EXPECT_EQ(rig.controller.actions_taken(), 0)
      << "a single spike below the smoothed threshold must not actuate";
}

// ---------------------------------------------------------------------------
// Recovery suspension, shed accounting, decision log.

TEST(SloControllerTest, SuspendsWhileRecoveryInFlight) {
  LadderRig rig(LadderOptions());
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;
  rig.actuator.recovering_flag = true;

  ControlDecision d = rig.Tick();
  EXPECT_EQ(d.action, "suspended");
  EXPECT_NE(d.trigger.find("recovery"), std::string::npos);
  EXPECT_EQ(rig.probe.samples, 0) << "no sampling during recovery";
  EXPECT_TRUE(rig.actuator.calls.empty());

  // Recovery ends: the controller resumes exactly where it left off.
  rig.actuator.recovering_flag = false;
  rig.Tick();
  EXPECT_EQ(rig.actuator.calls,
            (std::vector<std::string>{"threads=2"}));
}

TEST(SloControllerTest, AccountsShedElementsExactlyWhileDegraded) {
  SloOptions o = LadderOptions();
  o.base_threads = o.max_threads;
  o.base_batch_size = o.max_batch_size;
  o.allow_reshard = false;
  o.heavy_rung_patience = 1;
  LadderRig rig(o);
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;
  rig.probe.next.dropped_delta = 3;  // drops before rung 4 are not "shed"
  rig.Tick();
  ASSERT_EQ(rig.actuator.calls,
            (std::vector<std::string>{"shed=on"}));
  EXPECT_EQ(rig.controller.shed_while_degraded(), 0);

  rig.probe.next.dropped_delta = 7;
  ControlDecision d = rig.Tick();
  EXPECT_EQ(d.dropped_delta, 7);
  rig.probe.next.dropped_delta = 5;
  rig.Tick();
  EXPECT_EQ(rig.controller.shed_while_degraded(), 12);
}

TEST(SloControllerTest, DecisionLogIsRingCapped) {
  SloOptions o = LadderOptions();
  o.decision_log_limit = 4;
  LadderRig rig(o);
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 100.0;
  for (int i = 0; i < 10; ++i) rig.Tick();
  const std::vector<ControlDecision> log = rig.controller.decisions();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.front().interval, 7);  // oldest entries dropped
  EXPECT_EQ(log.back().interval, 10);
}

TEST(SloControllerTest, DescribeStateSummarizesRungAndLevers) {
  LadderRig rig(LadderOptions());
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;
  rig.Tick();
  const std::string state = rig.controller.DescribeState();
  EXPECT_NE(state.find("slo-control: rung 1"), std::string::npos);
  EXPECT_NE(state.find("threads 2"), std::string::npos);
  EXPECT_NE(state.find("actions 1"), std::string::npos);
}

TEST(ControlTableTest, RendersDecisionLog) {
  LadderRig rig(LadderOptions());
  rig.probe.next.interval_count = 100;
  rig.probe.next.interval_p99_micros = 4000.0;
  rig.Tick();
  rig.probe.next.interval_p99_micros = 800.0;
  rig.Tick();

  Table table = BuildControlTable(rig.controller.decisions());
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("grow threads 1->2"), std::string::npos);
  EXPECT_NE(text.find("in band"), std::string::npos);
  EXPECT_NE(text.find("0->1"), std::string::npos)
      << "rung transition column missing:\n" << text;
}

// ---------------------------------------------------------------------------
// Simulator agreement: the controller core, fed a metric trace derived
// from a deterministic virtual-time simulation of a calm/burst/calm
// workload, escalates during the burst, de-escalates after it, and
// produces the identical decision trace on every run.

std::vector<ControlMetrics> SimMetricTrace() {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  Node* op = qb.Select(src, "op", [](const Tuple&) { return true; });
  op->SetCostMicros(500.0);
  op->SetSelectivity(1.0);
  CountingSink* sink = qb.CountSink(op, "sink");
  sink->SetCostMicros(0.0);
  sink->SetSelectivity(1.0);

  // Service rate 2000/s. The 1000/s phases fit; the 4000/s burst backs
  // up ~2000 elements, which the long calm tail then drains — escalation
  // pressure followed by plenty of calm intervals to walk back down.
  SimOptions options;
  options.sample_interval = 1.0;
  Result<SimResult> sim =
      Simulate(graph, {{src, {{3000, 1000.0}, {4000, 4000.0}, {20000, 1000.0}}}},
               {SimThread{SimVo{op, sink}}}, options);
  CHECK_OK(sim.status());

  // Queueing delay is the latency proxy: p99 ~ (queued + 1) * cost.
  std::vector<ControlMetrics> trace;
  int64_t previous_results = 0;
  for (const SimSample& sample : sim->samples) {
    ControlMetrics m;
    m.interval_count = sample.results - previous_results;
    previous_results = sample.results;
    m.backlog = static_cast<size_t>(sample.queued);
    m.interval_p99_micros = (static_cast<double>(sample.queued) + 1.0) * 500.0;
    trace.push_back(m);
  }
  return trace;
}

std::vector<std::string> RunControllerOverTrace(
    const std::vector<ControlMetrics>& trace) {
  SloOptions o = LadderOptions();
  o.target_p99_micros = 10'000.0;  // ~10 queued elements
  o.allow_reshard = false;
  o.allow_shedding = false;  // capacity rungs only
  FakeProbe probe;
  FakeActuator actuator;
  VirtualClock clock;
  SloController controller(o, &probe, &actuator, &clock);
  int burst_rung = 0;
  for (const ControlMetrics& m : trace) {
    probe.next = m;
    clock.Advance(o.control_interval);
    controller.TickOnce();
    burst_rung = std::max(burst_rung, controller.current_rung());
  }
  EXPECT_GE(burst_rung, 1) << "never escalated during the burst";
  EXPECT_EQ(controller.current_rung(), 0)
      << "did not de-escalate after the burst drained";
  return actuator.calls;
}

TEST(ControlSimAgreementTest, BurstEscalatesDrainDeescalatesDeterministically) {
  const std::vector<ControlMetrics> trace = SimMetricTrace();
  ASSERT_GE(trace.size(), 20u);
  const std::vector<std::string> first = RunControllerOverTrace(trace);
  const std::vector<std::string> second = RunControllerOverTrace(trace);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "decision trace is not deterministic";
}

// ---------------------------------------------------------------------------
// Live engine actuation hooks.

struct PipelineFixture {
  QueryGraph graph;
  Source* src = nullptr;
  CollectingSink* sink = nullptr;

  PipelineFixture() {
    QueryBuilder qb(&graph);
    src = qb.AddSource("src");
    Node* op = qb.Select(src, "op", [](const Tuple&) { return true; });
    sink = qb.CollectSink(op, "sink");
  }
};

TEST(EngineActuationTest, ResizesThreadPoolLiveUnderHmts) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kHmts;
  options.ts.max_running = 1;
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());

  EXPECT_TRUE(engine.SetMaxRunningThreads(3).ok());
  EXPECT_EQ(engine.options().ts.max_running, 3);
  EXPECT_EQ(engine.hmts()->thread_scheduler().max_running(), 3);

  for (int i = 0; i < 100; ++i) fx.src->Push(Tuple({Value(int64_t{i})}, i));
  fx.src->Close(1000);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  EXPECT_EQ(fx.sink->TakeResults().size(), 100u);
}

TEST(EngineActuationTest, ThreadResizeRefusalsNameTheBlockingCondition) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  Status s = engine.SetMaxRunningThreads(2);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not configured"), std::string::npos);

  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  ASSERT_TRUE(engine.Configure(options).ok());
  s = engine.SetMaxRunningThreads(2);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("hmts"), std::string::npos);
  s = engine.SetMaxRunningThreads(0);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find(">= 1"), std::string::npos);
  ASSERT_TRUE(engine.Deconfigure().ok());
}

TEST(EngineActuationTest, ChangesEmitBatchSizeMidRunWithoutResultChange) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());

  std::vector<Tuple> expected;
  for (int i = 0; i < 100; ++i) {
    Tuple t({Value(int64_t{i})}, i);
    expected.push_back(t);
    fx.src->Push(t);
  }
  ASSERT_TRUE(engine.SetEmitBatchSizeLive(16).ok());
  EXPECT_EQ(engine.options().emit_batch_size, 16u);
  for (int i = 100; i < 300; ++i) {
    Tuple t({Value(int64_t{i})}, i);
    expected.push_back(t);
    fx.src->Push(t);
  }
  ASSERT_TRUE(engine.SetEmitBatchSizeLive(1).ok());
  for (int i = 300; i < 400; ++i) {
    Tuple t({Value(int64_t{i})}, i);
    expected.push_back(t);
    fx.src->Push(t);
  }
  fx.src->Close(1000);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  // Exact sequence: a single-source chain is order-preserving, and batch
  // granularity changes must be invisible to results.
  EXPECT_EQ(fx.sink->TakeResults(), expected);
}

TEST(EngineActuationTest, ShedsExactlyTheAccountedOverflowAfterPolicyFlip) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.queue_max_elements = 4;
  options.overload_policy = OverloadPolicy::kBlock;
  ASSERT_TRUE(engine.Configure(options).ok());

  // Flip to shedding before the workers start, then overfeed: the source
  // queue (bound 4) keeps the first 4 and sheds the 16 newest. Every
  // missing element must be accounted by the drop counters.
  ASSERT_TRUE(engine.SetOverloadPolicyLive(OverloadPolicy::kShedNewest).ok());
  for (int i = 0; i < 20; ++i) fx.src->Push(Tuple({Value(int64_t{i})}, i));
  fx.src->Close(1000);
  ASSERT_TRUE(engine.Start().ok());
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();

  const std::vector<Tuple> results = fx.sink->TakeResults();
  EXPECT_EQ(results.size(), 4u);
  EXPECT_EQ(engine.DroppedElements(), 16);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].IntAt(0), static_cast<int64_t>(i))
        << "kShedNewest must keep the oldest prefix";
  }
}

TEST(EngineActuationTest, OverloadPolicyFlipRefusalsNameTheBlockingCondition) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;  // unbounded queues
  ASSERT_TRUE(engine.Configure(options).ok());
  Status s = engine.SetOverloadPolicyLive(OverloadPolicy::kShedNewest);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unbounded"), std::string::npos);
  ASSERT_TRUE(engine.Deconfigure().ok());

  options.queue_max_elements = 4;
  ASSERT_TRUE(engine.Configure(options).ok());
  s = engine.SetOverloadPolicyLive(OverloadPolicy::kShedOldest);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("kShedOldest"), std::string::npos)
      << s.message();
  ASSERT_TRUE(engine.Deconfigure().ok());
}

TEST(EngineActuationTest, ControllerDrivesRealEngineEndToEnd) {
  // Full loop on a live engine: EngineMetricsProbe + EngineActuator +
  // a virtual-clock controller ticked manually around a real run.
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  Node* op = qb.Select(src, "op", [](const Tuple&) { return true; });
  LatencySink* sink = graph.Add<LatencySink>("sink", 1, Now());
  CHECK_OK(graph.Connect(op, sink, 0));

  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kHmts;
  options.ts.max_running = 1;
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());

  EngineMetricsProbe probe(&engine, &graph);
  EngineActuator actuator(&engine);
  SloOptions slo;
  slo.target_p99_micros = 1.0;  // everything breaches: forces escalation
  slo.ewma_alpha = 1.0;
  slo.base_threads = 1;
  slo.max_threads = 2;
  slo.base_batch_size = 1;
  slo.max_batch_size = 4;
  slo.allow_shedding = false;
  VirtualClock clock;
  SloController controller(slo, &probe, &actuator, &clock);

  const TimePoint epoch = Now();
  for (int i = 0; i < 100; ++i) {
    src->Push(
        Tuple({Value(int64_t{i}), Value(ToMicros(Now() - epoch))}, i));
  }
  // Let at least one element complete so the probe's interval has data
  // (the tick would otherwise read an idle interval and hold).
  while (sink->count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  clock.Advance(slo.control_interval);
  ControlDecision d = controller.TickOnce();
  EXPECT_NE(d.trigger.find("slo"), std::string::npos) << d.trigger;
  for (int i = 100; i < 200; ++i) {
    src->Push(
        Tuple({Value(int64_t{i}), Value(ToMicros(Now() - epoch))}, i));
  }
  src->Close(1000);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  EXPECT_TRUE(engine.RunResult().ok());
  EXPECT_EQ(sink->count(), 200);
  // The mid-run tick observed completions and escalated rung 1 live.
  EXPECT_GE(controller.actions_taken(), 1);
  EXPECT_EQ(engine.options().ts.max_running, 2);
}

// ---------------------------------------------------------------------------
// Structured refusals (satellite: SwitchTo / shard-count changes).

TEST(SwitchToRefusalTest, NamesTheBlockingCondition) {
  PipelineFixture fx;
  StreamEngine engine(&fx.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;

  Status s = engine.SwitchTo(options);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not configured"), std::string::npos);

  options.checkpoint_epoch_interval = 10;
  ASSERT_TRUE(engine.Configure(options).ok());
  EngineOptions other = options;
  other.mode = ExecutionMode::kOts;
  s = engine.SwitchTo(other);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("checkpointing is armed"), std::string::npos)
      << s.message();
  ASSERT_TRUE(engine.Deconfigure().ok());
}

TEST(ResizeShardRefusalTest, NamesTheBlockingCondition) {
  QueryGraph graph;
  ShardHandle empty;
  Result<ShardHandle> r = ResizeShard(&graph, empty, 4);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("does not describe a sharded cell"),
            std::string::npos);

  // A real cell, but the engine still holds queues: refused by name.
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kSum;
  agg_options.group_attr = 0;
  agg_options.value_attr = 1;
  agg_options.window_micros = 1'000'000'000'000;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", agg_options);
  qb.CollectSink(agg, "sink");
  Result<ShardHandle> handle = ShardOperator(&graph, agg, ShardOptions{});
  ASSERT_TRUE(handle.ok());

  r = ResizeShard(&graph, *handle, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(">= 1"), std::string::npos);

  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kOts;
  ASSERT_TRUE(engine.Configure(options).ok());
  r = ResizeShard(&graph, *handle, 4);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Deconfigure first"), std::string::npos)
      << r.status().message();
  ASSERT_TRUE(engine.Deconfigure().ok());
}

// ---------------------------------------------------------------------------
// Live reshard with state carry (the controller's rung 3).

std::vector<Tuple> ControlKeyedStream(int begin, int end) {
  std::vector<Tuple> stream;
  for (int i = begin; i < end; ++i) {
    stream.push_back(Tuple({Value(int64_t{i % 8}),
                            Value(static_cast<double>(i % 5))},
                           i + 1));
  }
  return stream;
}

TEST(ControlReshardTest, CarriesAggregateStateAcrossLiveResize) {
  // Golden: unsharded single-threaded run over the full stream.
  std::vector<Tuple> golden;
  {
    QueryGraph graph;
    QueryBuilder qb(&graph);
    Source* src = qb.AddSource("src");
    WindowedAggregate::Options agg_options;
    agg_options.kind = AggregateKind::kSum;
    agg_options.group_attr = 0;
    agg_options.value_attr = 1;
    agg_options.window_micros = 1'000'000'000'000;
    WindowedAggregate* agg = qb.Aggregate(src, "agg", agg_options);
    CollectingSink* sink = qb.CollectSink(agg, "sink");
    for (const Tuple& t : ControlKeyedStream(0, 300)) src->Push(t);
    src->Close(1000);
    golden = sink->TakeResults();
  }
  ASSERT_EQ(golden.size(), 300u);

  // Candidate: 2 shards for the first half, resized to 4 mid-stream. The
  // running sums must carry across the resize — any state loss shows up
  // as wrong aggregates in the second half.
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kSum;
  agg_options.group_attr = 0;
  agg_options.value_attr = 1;
  agg_options.window_micros = 1'000'000'000'000;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", agg_options);
  CollectingSink* sink = qb.CollectSink(agg, "sink");
  Result<ShardHandle> cell = ShardOperator(&graph, agg, ShardOptions{});
  ASSERT_TRUE(cell.ok());

  EngineOptions options;
  options.mode = ExecutionMode::kOts;
  StreamEngine engine(&graph);
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : ControlKeyedStream(0, 150)) src->Push(t);
  // Quiesce: sources stopped pushing; Deconfigure drains every queue and
  // flushes the merge, so all 150 results are downstream before the
  // resize (the ResizeShard contract).
  ASSERT_TRUE(engine.Deconfigure().ok());

  Result<ShardHandle> resized = ResizeShard(&graph, *cell, 4);
  ASSERT_TRUE(resized.ok()) << resized.status().message();
  EXPECT_EQ(resized->replicas.size(), 4u);
  EXPECT_EQ(resized->options.generation, 1);
  EXPECT_NE(resized->replicas[0]->name().find(".g1.shard0"),
            std::string::npos);

  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : ControlKeyedStream(150, 300)) src->Push(t);
  src->Close(1000);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();

  // Exact sequence: both generations use the ordered merge, and the
  // carried state makes the second half's running sums continue golden's.
  EXPECT_EQ(sink->TakeResults(), golden);
}

TEST(ControlReshardTest, ShrinksBackDownWithStateCarry) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kSum;
  agg_options.group_attr = 0;
  agg_options.value_attr = 1;
  agg_options.window_micros = 1'000'000'000'000;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", agg_options);
  CollectingSink* sink = qb.CollectSink(agg, "sink");
  ShardOptions shard_options;
  shard_options.shards = 4;
  Result<ShardHandle> cell = ShardOperator(&graph, agg, shard_options);
  ASSERT_TRUE(cell.ok());

  EngineOptions options;
  options.mode = ExecutionMode::kOts;
  StreamEngine engine(&graph);
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : ControlKeyedStream(0, 100)) src->Push(t);
  ASSERT_TRUE(engine.Deconfigure().ok());

  Result<ShardHandle> resized = ResizeShard(&graph, *cell, 2);
  ASSERT_TRUE(resized.ok()) << resized.status().message();
  EXPECT_EQ(resized->replicas.size(), 2u);

  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : ControlKeyedStream(100, 200)) src->Push(t);
  src->Close(1000);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();

  std::vector<Tuple> golden;
  {
    QueryGraph g2;
    QueryBuilder qb2(&g2);
    Source* src2 = qb2.AddSource("src");
    WindowedAggregate* agg2 = qb2.Aggregate(src2, "agg", agg_options);
    CollectingSink* sink2 = qb2.CollectSink(agg2, "sink");
    for (const Tuple& t : ControlKeyedStream(0, 200)) src2->Push(t);
    src2->Close(1000);
    golden = sink2->TakeResults();
  }
  EXPECT_EQ(sink->TakeResults(), golden);
}

}  // namespace
}  // namespace flexstream
