// Tests of the push-based Operator base: direct interoperability, EOS
// punctuation handling, statistics, serialized receive.

#include "operators/operator.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <thread>

#include "api/shard.h"
#include "graph/query_graph.h"
#include "operators/map_op.h"
#include "operators/projection.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/union_op.h"
#include "util/busy_work.h"

namespace flexstream {
namespace {

class StatsGuard {
 public:
  explicit StatsGuard(bool enabled) { SetStatsCollectionEnabled(enabled); }
  ~StatsGuard() { SetStatsCollectionEnabled(true); }
};

TEST(OperatorTest, EmitReachesAllSubscribersInOrder) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  std::vector<int> order;
  CallbackSink* sink1 = g.Add<CallbackSink>(
      "out1", [&](const Tuple&, int) { order.push_back(1); });
  CallbackSink* sink2 = g.Add<CallbackSink>(
      "out2", [&](const Tuple&, int) { order.push_back(2); });
  ASSERT_TRUE(g.Connect(src, sink1).ok());
  ASSERT_TRUE(g.Connect(src, sink2).ok());
  src->Push(Tuple::OfInt(7));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(OperatorTest, DepthFirstChainReaction) {
  // An element pushed at the source traverses the whole chain before Push
  // returns (Section 2.4's DI semantics).
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* sel = g.Add<Selection>(
      "f", [](const Tuple& t) { return t.IntAt(0) % 2 == 0; });
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sel).ok());
  ASSERT_TRUE(g.Connect(sel, sink).ok());
  src->Push(Tuple::OfInt(2));
  EXPECT_EQ(sink->size(), 1u) << "result visible immediately after Push";
  src->Push(Tuple::OfInt(3));
  EXPECT_EQ(sink->size(), 1u);
}

TEST(OperatorTest, EosPropagatesThroughChain) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* sel = g.Add<Selection>("f", [](const Tuple&) { return true; });
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sel).ok());
  ASSERT_TRUE(g.Connect(sel, sink).ok());
  EXPECT_FALSE(sink->closed());
  src->Close(50);
  EXPECT_TRUE(sel->closed());
  EXPECT_TRUE(sink->closed());
  sink->WaitUntilClosed();  // must not block
}

TEST(OperatorTest, CloseIsIdempotent) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  src->Close();
  src->Close();
  EXPECT_TRUE(sink->closed());
}

TEST(OperatorTest, MultiInputWaitsForAllEos) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  UnionOp* u = g.Add<UnionOp>("u");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(a, u).ok());
  ASSERT_TRUE(g.Connect(b, u).ok());
  ASSERT_TRUE(g.Connect(u, sink).ok());
  a->Close(10);
  EXPECT_FALSE(u->closed()) << "one open input remains";
  b->Push(Tuple::OfInt(1, 11));
  EXPECT_EQ(sink->size(), 1u) << "data still flows from the open input";
  b->Close(12);
  EXPECT_TRUE(u->closed());
  EXPECT_TRUE(sink->closed());
}

TEST(OperatorTest, ResetReArmsEos) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  src->Push(Tuple::OfInt(1));
  src->Close();
  EXPECT_TRUE(sink->closed());
  g.ResetAll();
  EXPECT_FALSE(sink->closed());
  EXPECT_EQ(sink->size(), 0u);
  src->Push(Tuple::OfInt(2));
  src->Close();
  EXPECT_TRUE(sink->closed());
  EXPECT_EQ(sink->size(), 1u);
}

TEST(OperatorTest, StatsCountProcessedAndEmitted) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* sel = g.Add<Selection>(
      "f", [](const Tuple& t) { return t.IntAt(0) < 5; });
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sel).ok());
  ASSERT_TRUE(g.Connect(sel, sink).ok());
  for (int i = 0; i < 10; ++i) src->Push(Tuple::OfInt(i));
  EXPECT_EQ(sel->stats().processed(), 10);
  EXPECT_EQ(sel->stats().emitted(), 5);
  EXPECT_NEAR(sel->Selectivity(), 0.5, 1e-9);
}

TEST(OperatorTest, SelfTimeExcludesDownstreamCost) {
  // Upstream cheap selection followed by an expensive one: with DI the
  // cheap operator's Process includes the downstream call, but measured
  // c(v) must be per-operator (Section 5.1.2).
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* cheap =
      g.Add<Selection>("cheap", [](const Tuple&) { return true; });
  Selection* expensive = g.Add<Selection>(
      "expensive", [](const Tuple&) { return true; }, /*cost=*/2000.0);
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, cheap).ok());
  ASSERT_TRUE(g.Connect(cheap, expensive).ok());
  ASSERT_TRUE(g.Connect(expensive, sink).ok());
  for (int i = 0; i < 20; ++i) src->Push(Tuple::OfInt(i));
  EXPECT_GE(expensive->CostMicros(), 500.0);
  EXPECT_LT(cheap->CostMicros(), expensive->CostMicros() / 4)
      << "cheap operator must not be billed for the expensive one";
}

TEST(OperatorTest, ConstructorCostIsTheGatesSimulatedCost) {
  // Selection, MapOp and Projection take a simulated cost as a constructor
  // argument. It is the operator's one simulated cost — the one the
  // delivery gate burns — so it reads back through the base accessor, and
  // a shard replica of the operator carries it.
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* sel =
      g.Add<Selection>("sel", [](const Tuple&) { return true; }, 7.0);
  const std::vector<std::pair<const Operator*, double>> ops = {
      {sel, 7.0},
      {g.Add<MapOp>("map", [](const Tuple& t) { return t; }, 8.0), 8.0},
      {g.Add<Projection>("proj", std::vector<size_t>{}, 9.0), 9.0}};
  for (const auto& [op, cost] : ops) {
    EXPECT_EQ(op->simulated_cost_micros(), cost) << op->name();
  }
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sel).ok());
  ASSERT_TRUE(g.Connect(sel, sink).ok());
  Result<ShardHandle> sharded = ShardOperator(&g, sel, ShardOptions());
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  for (const Operator* replica : sharded->replicas) {
    EXPECT_EQ(replica->simulated_cost_micros(), 7.0) << replica->name();
  }
}

enum class Delivery { kPerTuple, kRowBatch8, kColumnar8 };

struct SelfTimeCase {
  const char* name;
  bool blocking;  // simulated blocking (waiting) instead of a burn
  Delivery delivery;
};

void PrintTo(const SelfTimeCase& c, std::ostream* os) { *os << c.name; }

class OperatorSelfTimeTest : public ::testing::TestWithParam<SelfTimeCase> {};

TEST_P(OperatorSelfTimeTest, ExcludesDownstreamCost) {
  // Source -> pass-through A -> expensive B under DI: A's Receive includes
  // B's, but measured c(v) must be per-operator (Section 5.1.2) on every
  // delivery path. B's expense is a burn (computing: B's own c(v)) or a
  // simulated block (waiting: in neither B's c(v) nor A's).
  const SelfTimeCase& param = GetParam();
  constexpr double kExpenseMicros = 2000.0;
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  UnionOp* cheap = g.Add<UnionOp>("cheap");
  UnionOp* expensive = g.Add<UnionOp>("expensive");
  CountingSink* sink = g.Add<CountingSink>("out");
  ASSERT_TRUE(g.Connect(src, cheap).ok());
  ASSERT_TRUE(g.Connect(cheap, expensive).ok());
  ASSERT_TRUE(g.Connect(expensive, sink).ok());
  if (param.blocking) {
    expensive->SetSimulatedBlockingMicros(kExpenseMicros);
  } else {
    expensive->SetSimulatedCostMicros(kExpenseMicros);
  }
  if (param.delivery != Delivery::kPerTuple) src->SetEmitBatchSize(8);
  if (param.delivery == Delivery::kColumnar8) src->SetColumnarEmit(true);
  for (int i = 0; i < 24; ++i) src->Push(Tuple::OfInt(i));
  src->Close();
  EXPECT_EQ(sink->count(), 24);
  EXPECT_EQ(expensive->stats().processed(), 24);
  if (param.blocking) {
    EXPECT_LT(expensive->CostMicros(), kExpenseMicros / 4)
        << "waiting is not computing";
  } else {
    EXPECT_GE(expensive->CostMicros(), kExpenseMicros / 4);
  }
  EXPECT_LT(cheap->CostMicros(), kExpenseMicros / 4)
      << "cheap operator must not be billed for the expensive one";
}

INSTANTIATE_TEST_SUITE_P(
    Delivery, OperatorSelfTimeTest,
    ::testing::Values(
        SelfTimeCase{"BurnPerTuple", false, Delivery::kPerTuple},
        SelfTimeCase{"BurnRowBatch8", false, Delivery::kRowBatch8},
        SelfTimeCase{"BurnColumnar8", false, Delivery::kColumnar8},
        SelfTimeCase{"BlockingPerTuple", true, Delivery::kPerTuple},
        SelfTimeCase{"BlockingRowBatch8", true, Delivery::kRowBatch8},
        SelfTimeCase{"BlockingColumnar8", true, Delivery::kColumnar8}),
    [](const ::testing::TestParamInfo<SelfTimeCase>& info) {
      return std::string(info.param.name);
    });

TEST(OperatorTest, StatsDisabledSkipsBookkeeping) {
  StatsGuard guard(false);
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  Selection* sel = g.Add<Selection>("f", [](const Tuple&) { return true; });
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sel).ok());
  ASSERT_TRUE(g.Connect(sel, sink).ok());
  src->Push(Tuple::OfInt(1));
  EXPECT_EQ(sel->stats().processed(), 0);
  EXPECT_EQ(sink->size(), 1u) << "data flow unaffected";
}

TEST(OperatorTest, SerializedReceiveAllowsConcurrentDrivers) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  UnionOp* u = g.Add<UnionOp>("u");
  CountingSink* sink = g.Add<CountingSink>("out");
  ASSERT_TRUE(g.Connect(a, u).ok());
  ASSERT_TRUE(g.Connect(b, u).ok());
  ASSERT_TRUE(g.Connect(u, sink).ok());
  u->SetSerializedReceive(true);
  sink->SetSerializedReceive(true);
  EXPECT_TRUE(u->serialized_receive());
  constexpr int kPerSource = 20000;
  std::thread ta([&] {
    for (int i = 0; i < kPerSource; ++i) a->Push(Tuple::OfInt(i, i));
    a->Close(kPerSource);
  });
  std::thread tb([&] {
    for (int i = 0; i < kPerSource; ++i) b->Push(Tuple::OfInt(i, i));
    b->Close(kPerSource);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(sink->count(), 2 * kPerSource);
  EXPECT_TRUE(sink->closed());
}

TEST(SourceTest, VectorSourceReplaysAllThenCloses) {
  QueryGraph g;
  VectorSource* src = g.Add<VectorSource>(
      "v", std::vector<Tuple>{Tuple::OfInt(1, 1), Tuple::OfInt(2, 2)});
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  src->PushAll();
  EXPECT_EQ(sink->size(), 2u);
  EXPECT_TRUE(sink->closed());
}

TEST(SinkTest, CountingSinkTimeline) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  CountingSink* sink = g.Add<CountingSink>("out");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  sink->StartTimeline(Now());
  src->Push(Tuple::OfInt(1));
  src->Push(Tuple::OfInt(2));
  auto timeline = sink->TakeTimeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].second, 1);
  EXPECT_EQ(timeline[1].second, 2);
  EXPECT_LE(timeline[0].first, timeline[1].first);
}

TEST(SinkTest, WaitUntilClosedForTimesOut) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  EXPECT_FALSE(sink->WaitUntilClosedFor(std::chrono::milliseconds(10)));
  src->Close();
  EXPECT_TRUE(sink->WaitUntilClosedFor(std::chrono::milliseconds(10)));
}

TEST(SinkTest, CollectingSinkTakeResultsMoves) {
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  CollectingSink* sink = g.Add<CollectingSink>("out");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  src->Push(Tuple::OfInt(1));
  auto results = sink->TakeResults();
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(sink->size(), 0u);
}

}  // namespace
}  // namespace flexstream
