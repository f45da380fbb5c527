// Sliding window and windowed aggregation semantics, checked against
// brute-force oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <type_traits>

#include "graph/query_graph.h"
#include "operators/aggregate.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/window.h"
#include "util/random.h"

namespace flexstream {
namespace {

TEST(SlidingWindowTest, AddAndExpire) {
  SlidingWindow w(100);
  w.Add(Tuple::OfInt(1, 10));
  w.Add(Tuple::OfInt(2, 50));
  w.Add(Tuple::OfInt(3, 120));
  EXPECT_EQ(w.size(), 3u);
  std::vector<int64_t> expired;
  w.ExpireBefore(w.WatermarkFor(105),
                 [&](const Tuple& t) { expired.push_back(t.IntAt(0)); });
  EXPECT_TRUE(expired.empty()) << "10 >= 105-100 stays";
  w.ExpireBefore(w.WatermarkFor(155),
                 [&](const Tuple& t) { expired.push_back(t.IntAt(0)); });
  EXPECT_EQ(expired, (std::vector<int64_t>{1, 2}))
      << "10 and 50 fall below watermark 55";
  EXPECT_EQ(w.size(), 1u);
}

TEST(SlidingWindowTest, ExpireOnEmptyIsNoop) {
  SlidingWindow w(10);
  w.ExpireBefore(1000);
  EXPECT_TRUE(w.empty());
}

TEST(SlidingWindowTest, ZeroDurationKeepsOnlyCurrentInstant) {
  SlidingWindow w(0);
  w.Add(Tuple::OfInt(1, 5));
  w.ExpireBefore(w.WatermarkFor(6));
  EXPECT_TRUE(w.empty());
}

TEST(AggregateKindTest, Names) {
  EXPECT_STREQ(AggregateKindToString(AggregateKind::kCount), "count");
  EXPECT_STREQ(AggregateKindToString(AggregateKind::kAvg), "avg");
}

struct AggRig {
  QueryGraph graph;
  Source* src;
  WindowedAggregate* agg;
  CollectingSink* sink;

  explicit AggRig(WindowedAggregate::Options options) {
    src = graph.Add<Source>("src");
    agg = graph.Add<WindowedAggregate>("agg", options);
    sink = graph.Add<CollectingSink>("sink");
    EXPECT_TRUE(graph.Connect(src, agg).ok());
    EXPECT_TRUE(graph.Connect(agg, sink).ok());
  }
};

TEST(WindowedAggregateTest, CountOverWindow) {
  WindowedAggregate::Options opt;
  opt.kind = AggregateKind::kCount;
  opt.window_micros = 100;
  AggRig rig(opt);
  rig.src->Push(Tuple::OfInt(1, 0));
  rig.src->Push(Tuple::OfInt(2, 50));
  rig.src->Push(Tuple::OfInt(3, 200));  // first two expired
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].DoubleAt(0), 1.0);
  EXPECT_EQ(results[1].DoubleAt(0), 2.0);
  EXPECT_EQ(results[2].DoubleAt(0), 1.0);
}

TEST(WindowedAggregateTest, SumAndAvg) {
  WindowedAggregate::Options opt;
  opt.kind = AggregateKind::kSum;
  opt.window_micros = 1000;
  AggRig rig(opt);
  rig.src->Push(Tuple::OfInt(10, 1));
  rig.src->Push(Tuple::OfInt(30, 2));
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].DoubleAt(0), 40.0);

  WindowedAggregate::Options avg_opt;
  avg_opt.kind = AggregateKind::kAvg;
  avg_opt.window_micros = 1000;
  AggRig avg_rig(avg_opt);
  avg_rig.src->Push(Tuple::OfInt(10, 1));
  avg_rig.src->Push(Tuple::OfInt(30, 2));
  auto avg_results = avg_rig.sink->TakeResults();
  EXPECT_EQ(avg_results[1].DoubleAt(0), 20.0);
}

TEST(WindowedAggregateTest, MinMaxSurviveExpiration) {
  WindowedAggregate::Options opt;
  opt.kind = AggregateKind::kMax;
  opt.window_micros = 100;
  AggRig rig(opt);
  rig.src->Push(Tuple::OfInt(50, 0));
  rig.src->Push(Tuple::OfInt(10, 50));
  rig.src->Push(Tuple::OfInt(20, 160));  // 50 expired, max of {10,20}=20
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].DoubleAt(0), 50.0);
  EXPECT_EQ(results[1].DoubleAt(0), 50.0);
  EXPECT_EQ(results[2].DoubleAt(0), 20.0);
}

TEST(WindowedAggregateTest, GroupByEmitsPerGroup) {
  WindowedAggregate::Options opt;
  opt.kind = AggregateKind::kCount;
  opt.group_attr = 0;
  opt.window_micros = 1000;
  AggRig rig(opt);
  rig.src->Push(Tuple({Value("a")}, 1));
  rig.src->Push(Tuple({Value("b")}, 2));
  rig.src->Push(Tuple({Value("a")}, 3));
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].StringAt(0), "a");
  EXPECT_EQ(results[0].DoubleAt(1), 1.0);
  EXPECT_EQ(results[1].StringAt(0), "b");
  EXPECT_EQ(results[1].DoubleAt(1), 1.0);
  EXPECT_EQ(results[2].StringAt(0), "a");
  EXPECT_EQ(results[2].DoubleAt(1), 2.0);
}

TEST(WindowedAggregateTest, ResetClearsState) {
  WindowedAggregate::Options opt;
  opt.kind = AggregateKind::kCount;
  opt.window_micros = 1000;
  AggRig rig(opt);
  rig.src->Push(Tuple::OfInt(1, 1));
  EXPECT_EQ(rig.agg->window_size(), 1u);
  rig.graph.ResetAll();
  EXPECT_EQ(rig.agg->window_size(), 0u);
  rig.src->Push(Tuple::OfInt(1, 1));
  auto results = rig.sink->TakeResults();
  // First result after reset counts only the new element.
  EXPECT_EQ(results.back().DoubleAt(0), 1.0);
}

// Property test: randomized streams against a brute-force oracle, swept
// over aggregate kinds and window lengths.
struct AggCase {
  AggCase(AggregateKind k, AppTime w, uint64_t s)
      : kind(k), window(w), seed(s) {}
  AggregateKind kind;
  // gtest prints the raw bytes of each case into the test's name. Fill
  // the gap after `kind` explicitly so no uninitialised padding (stack
  // garbage) leaks into the names and they stay the same across builds.
  uint32_t filler = 0;
  AppTime window;
  uint64_t seed;
};
static_assert(sizeof(AggregateKind) == sizeof(uint32_t));
static_assert(std::has_unique_object_representations_v<AggCase>,
              "AggCase must have no padding bytes");

class AggregateOracleTest : public ::testing::TestWithParam<AggCase> {};

double Oracle(AggregateKind kind, const std::deque<Tuple>& window,
              size_t value_attr) {
  double sum = 0;
  double mn = 0;
  double mx = 0;
  bool first = true;
  for (const Tuple& t : window) {
    const double v = kind == AggregateKind::kCount
                         ? 0.0
                         : t.at(value_attr).ToDouble();
    sum += v;
    if (first || v < mn) mn = v;
    if (first || v > mx) mx = v;
    first = false;
  }
  switch (kind) {
    case AggregateKind::kCount:
      return static_cast<double>(window.size());
    case AggregateKind::kSum:
      return sum;
    case AggregateKind::kAvg:
      return window.empty() ? 0.0
                            : sum / static_cast<double>(window.size());
    case AggregateKind::kMin:
      return mn;
    case AggregateKind::kMax:
      return mx;
  }
  return 0;
}

TEST_P(AggregateOracleTest, MatchesBruteForce) {
  const AggCase& c = GetParam();
  WindowedAggregate::Options opt;
  opt.kind = c.kind;
  opt.value_attr = 0;
  opt.window_micros = c.window;
  AggRig rig(opt);

  Rng rng(c.seed);
  AppTime ts = 0;
  std::deque<Tuple> oracle_window;
  std::vector<double> expected;
  for (int i = 0; i < 500; ++i) {
    ts += rng.UniformInt(0, 40);
    Tuple t = Tuple::OfInt(rng.UniformInt(-100, 100), ts);
    // Oracle: expire strictly-older-than watermark, then add.
    while (!oracle_window.empty() &&
           oracle_window.front().timestamp() < ts - c.window) {
      oracle_window.pop_front();
    }
    oracle_window.push_back(t);
    expected.push_back(Oracle(c.kind, oracle_window, 0));
    rig.src->Push(t);
  }
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(results[i].DoubleAt(0), expected[i], 1e-9)
        << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregateOracleTest,
    ::testing::Values(AggCase{AggregateKind::kCount, 100, 1},
                      AggCase{AggregateKind::kCount, 1000, 2},
                      AggCase{AggregateKind::kSum, 100, 3},
                      AggCase{AggregateKind::kSum, 1000, 4},
                      AggCase{AggregateKind::kAvg, 500, 5},
                      AggCase{AggregateKind::kMin, 100, 6},
                      AggCase{AggregateKind::kMin, 1000, 7},
                      AggCase{AggregateKind::kMax, 100, 8},
                      AggCase{AggregateKind::kMax, 1000, 9}));

}  // namespace
}  // namespace flexstream
