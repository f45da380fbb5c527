// Histogram, LatencySink, DOT export.

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "graph/dot_export.h"
#include "placement/static_queue_placement.h"
#include "stats/capacity.h"
#include "util/histogram.h"
#include "workload/rate_source.h"

namespace flexstream {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.mean(), 42.0);
  EXPECT_EQ(h.min(), 42.0);
  EXPECT_EQ(h.max(), 42.0);
  EXPECT_NEAR(h.Percentile(0.5), 42.0, 42.0 * 0.08);
}

TEST(HistogramTest, PercentilesOfUniformRamp) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(static_cast<double>(i));
  EXPECT_NEAR(h.mean(), 5000.5, 1.0);
  // Log buckets give ~7% relative resolution.
  EXPECT_NEAR(h.Percentile(0.5), 5000.0, 5000.0 * 0.1);
  EXPECT_NEAR(h.Percentile(0.95), 9500.0, 9500.0 * 0.1);
  EXPECT_NEAR(h.Percentile(0.0), 1.0, 1.0);
  EXPECT_NEAR(h.Percentile(1.0), 10000.0, 10000.0 * 0.1);
}

TEST(HistogramTest, NegativeAndSubOneGoToUnderflowBucket) {
  Histogram h;
  h.Add(-5.0);
  h.Add(0.5);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_LE(h.Percentile(0.5), 1.0);
}

TEST(HistogramTest, MergeEqualsCombinedAdds) {
  Histogram a;
  Histogram b;
  Histogram both;
  for (int i = 1; i <= 100; ++i) {
    (i % 2 == 0 ? a : b).Add(static_cast<double>(i * 10));
    both.Add(static_cast<double>(i * 10));
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_NEAR(a.mean(), both.mean(), 1e-9);
  EXPECT_EQ(a.Percentile(0.9), both.Percentile(0.9));
}

TEST(HistogramTest, SummaryMentionsPercentiles) {
  Histogram h;
  h.Add(10.0);
  const std::string s = h.Summary();
  EXPECT_NE(s.find("count=1"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
}

TEST(LatencySinkTest, MeasuresQueueingDelay) {
  // Elements stamped at emit; the queue is drained only after a known
  // delay, so measured latency must be at least that delay.
  QueryGraph g;
  QueryBuilder qb(&g);
  Source* src = qb.AddSource("src");
  QueueOp* q = g.Add<QueueOp>("q");
  ASSERT_TRUE(g.Connect(src, q).ok());
  const TimePoint epoch = Now();
  LatencySink* sink = qb.Latency(q, "lat", /*offset_attr=*/1, epoch);
  // Emit 10 stamped elements.
  RateSource::Options opt;
  opt.phases = {{10, 0.0}};
  opt.stamp_emit_offset = true;
  opt.stamp_epoch = epoch;
  RateSource driver(src, opt, RateSource::UniformInt(0, 9));
  driver.Run();
  SleepUntil(Now() + std::chrono::milliseconds(20));
  q->DrainBatch(100);
  Histogram h = sink->TakeHistogram();
  EXPECT_EQ(h.count(), 10);
  EXPECT_GE(h.min(), 15'000.0) << "must include the 20 ms queueing delay";
  EXPECT_LT(h.max(), 5'000'000.0);
}

TEST(DotExportTest, PlainGraphContainsNodesAndEdges) {
  QueryGraph g;
  QueryBuilder qb(&g);
  Source* src = qb.AddSource("my_src");
  Node* sel = qb.Select(src, "my_sel", Selection::IntAttrLessThan(5));
  qb.CountSink(sel, "my_sink");
  const std::string dot = ToDot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("my_src"), std::string::npos);
  EXPECT_NE(dot.find("my_sel"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("house"), std::string::npos) << "source shape";
  EXPECT_NE(dot.find("doublecircle"), std::string::npos) << "sink shape";
}

TEST(DotExportTest, PartitionedGraphHasClusters) {
  QueryGraph g;
  QueryBuilder qb(&g);
  Source* src = qb.AddSource("src");
  src->SetInterarrivalMicros(100.0);
  src->SetSelectivity(1.0);
  Node* cheap = qb.Select(src, "cheap", Selection::IntAttrLessThan(5));
  cheap->SetCostMicros(1.0);
  cheap->SetSelectivity(0.5);
  Node* heavy = qb.Select(cheap, "heavy", Selection::IntAttrLessThan(5));
  heavy->SetCostMicros(100'000.0);
  heavy->SetSelectivity(1.0);
  ASSERT_TRUE(PropagateRates(&g).ok());
  Partitioning p = StaticQueuePlacement(g);
  const std::string dot = ToDot(g, p);
  EXPECT_NE(dot.find("subgraph cluster_p0"), std::string::npos);
  EXPECT_NE(dot.find("cheap"), std::string::npos);
}

TEST(DotExportTest, EscapesQuotesInNames) {
  QueryGraph g;
  g.Add<Source>("evil\"name");
  const std::string dot = ToDot(g);
  EXPECT_NE(dot.find("evil\\\"name"), std::string::npos);
}

}  // namespace
}  // namespace flexstream
