// Join semantics: SHJ and SNJ against a brute-force oracle, SHJ == SNJ on
// equi-joins, multiway join against pairwise composition.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "graph/query_graph.h"
#include "operators/multiway_join.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/symmetric_hash_join.h"
#include "operators/symmetric_nl_join.h"
#include "util/random.h"

namespace flexstream {
namespace {

struct Event {
  int side;  // 0 = left, 1 = right
  Tuple tuple;
};

/// Interleaved monotone two-stream workload.
std::vector<Event> MakeWorkload(uint64_t seed, int n, int64_t key_range) {
  Rng rng(seed);
  std::vector<Event> events;
  AppTime ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += rng.UniformInt(0, 30);
    events.push_back(
        {static_cast<int>(rng.NextU64(2)),
         Tuple({Value(rng.UniformInt(0, key_range)), Value(int64_t{i})},
               ts)});
  }
  return events;
}

/// Brute-force sliding-window equi-join oracle.
std::vector<Tuple> OracleJoin(const std::vector<Event>& events,
                              AppTime window) {
  std::vector<Tuple> results;
  std::vector<Tuple> sides[2];
  for (const Event& e : events) {
    const auto& other = sides[1 - e.side];
    for (const Tuple& cand : other) {
      if (cand.timestamp() < e.tuple.timestamp() - window) continue;
      if (cand.at(0) != e.tuple.at(0)) continue;
      results.push_back(e.side == 0 ? Tuple::Concat(e.tuple, cand)
                                    : Tuple::Concat(cand, e.tuple));
    }
    sides[e.side].push_back(e.tuple);
  }
  return results;
}

std::vector<Tuple> Sorted(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct JoinRig {
  QueryGraph graph;
  Source* left;
  Source* right;
  CollectingSink* sink;

  template <typename JoinT, typename... Args>
  JoinT* Wire(Args&&... args) {
    left = graph.Add<Source>("left");
    right = graph.Add<Source>("right");
    JoinT* join = graph.Add<JoinT>(std::forward<Args>(args)...);
    sink = graph.Add<CollectingSink>("sink");
    EXPECT_TRUE(graph.Connect(left, join, 0).ok());
    EXPECT_TRUE(graph.Connect(right, join, 1).ok());
    EXPECT_TRUE(graph.Connect(join, sink).ok());
    return join;
  }

  void Feed(const std::vector<Event>& events) {
    for (const Event& e : events) {
      (e.side == 0 ? left : right)->Push(e.tuple);
    }
  }
};

TEST(ShjTest, BasicMatchProducesConcatenation) {
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 1000);
  rig.left->Push(Tuple({Value(7), Value(100)}, 1));
  rig.right->Push(Tuple({Value(7), Value(200)}, 2));
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], Tuple({Value(7), Value(100), Value(7), Value(200)},
                              2));
}

TEST(ShjTest, NoMatchOnDifferentKeys) {
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 1000);
  rig.left->Push(Tuple::OfInt(1, 1));
  rig.right->Push(Tuple::OfInt(2, 2));
  EXPECT_EQ(rig.sink->size(), 0u);
}

TEST(ShjTest, WindowExpiresOldTuples) {
  JoinRig rig;
  SymmetricHashJoin* join = rig.Wire<SymmetricHashJoin>("j", 100);
  rig.left->Push(Tuple::OfInt(7, 0));
  rig.right->Push(Tuple::OfInt(7, 50));   // match
  rig.right->Push(Tuple::OfInt(7, 150));  // left@0 expired (150-100=50 > 0)
  auto results = rig.sink->TakeResults();
  EXPECT_EQ(results.size(), 1u);
  EXPECT_LE(join->StateSize(), 3u);
}

// Expiry by the slower input: while the right input is silent, it may
// still deliver a tuple as old as the left's first, so the left window
// keeps everything; once the right input speaks, expiry follows its mark,
// and once it closes, expiry follows the arriving tuple alone.
TEST(ShjTest, SilentInputHoldsTheOtherWindow) {
  JoinRig rig;
  SymmetricHashJoin* join = rig.Wire<SymmetricHashJoin>("j", 100);
  for (int i = 0; i < 50; ++i) rig.left->Push(Tuple::OfInt(7, i * 10));
  EXPECT_EQ(join->StateSize(), 50u) << "a silent input expires nothing";

  // The late right tuple at 0 finds its whole band: left 0, 10, ..., 100.
  rig.right->Push(Tuple::OfInt(7, 0));
  EXPECT_EQ(rig.sink->TakeResults().size(), 11u);
  rig.left->Push(Tuple::OfInt(8, 500));
  EXPECT_EQ(join->StateSize(), 52u) << "the right mark (0) holds the left";
  rig.right->Push(Tuple::OfInt(8, 400));
  EXPECT_EQ(rig.sink->TakeResults().size(), 1u);
  // Expired now: left and right below min(400, 500) - 100 = 300.
  EXPECT_EQ(join->StateSize(), 22u);

  rig.right->Close(400);
  rig.left->Push(Tuple::OfInt(9, 600));
  // Left keeps 500 and 600; the right input is closed and its 400 expired.
  EXPECT_EQ(join->StateSize(), 2u);
}

TEST(ShjTest, StateSizeTracksStoredTuples) {
  JoinRig rig;
  SymmetricHashJoin* join = rig.Wire<SymmetricHashJoin>("j", 1000);
  EXPECT_EQ(join->StateSize(), 0u);
  rig.left->Push(Tuple::OfInt(1, 1));
  rig.right->Push(Tuple::OfInt(2, 2));
  EXPECT_EQ(join->StateSize(), 2u);
  rig.graph.ResetAll();
  EXPECT_EQ(join->StateSize(), 0u);
}

TEST(ShjTest, DifferentKeyAttributesPerSide) {
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 1000, /*left_key=*/1, /*right_key=*/0);
  rig.left->Push(Tuple({Value(99), Value(5)}, 1));
  rig.right->Push(Tuple({Value(5), Value(88)}, 2));
  EXPECT_EQ(rig.sink->size(), 1u);
}

TEST(ShjTest, ScheduleIndependentWindowBand) {
  // When one input runs far ahead of the other (possible whenever the two
  // queues are drained by different threads), a stored tuple from "the
  // future" must not join with a late-processed old tuple: the pair's
  // timestamp distance exceeds the window no matter the processing order.
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 100);
  rig.right->Push(Tuple::OfInt(7, 1000));  // right side far ahead
  rig.left->Push(Tuple::OfInt(7, 10));     // old left tuple arrives late
  EXPECT_EQ(rig.sink->size(), 0u)
      << "|1000 - 10| > 100: no match regardless of processing order";
  // Within the band it does match.
  rig.left->Push(Tuple::OfInt(7, 950));
  EXPECT_EQ(rig.sink->size(), 1u);
}

// One input runs a whole stream ahead of the other: every left element
// (and the left EOS) is pushed before the first right one. Expiry by the
// slower input keeps every left tuple a right one can still match, so the
// join finds every in-band pair under every scheduler.
class ShjSkewTest : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(ShjSkewTest, FindsEveryInBandPairWhenOneInputRunsAhead) {
  constexpr int kPerSide = 400;
  constexpr AppTime kWindow = 30;
  std::vector<Tuple> lefts;
  std::vector<Tuple> rights;
  for (int i = 0; i < kPerSide; ++i) {
    lefts.push_back(Tuple({Value(int64_t{i % 7}), Value(int64_t{i})}, 3 * i));
    rights.push_back(
        Tuple({Value(int64_t{i % 7}), Value(int64_t{-i})}, 3 * i + 1));
  }
  std::vector<Tuple> expected;
  for (const Tuple& l : lefts) {
    for (const Tuple& r : rights) {
      if (l.at(0) == r.at(0) &&
          std::abs(l.timestamp() - r.timestamp()) <= kWindow) {
        expected.push_back(Tuple::Concat(l, r));
      }
    }
  }
  ASSERT_FALSE(expected.empty());

  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", kWindow);
  StreamEngine engine(&rig.graph);
  EngineOptions options;
  options.mode = GetParam();
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& l : lefts) rig.left->Push(l);
  rig.left->Close(lefts.back().timestamp());
  for (const Tuple& r : rights) rig.right->Push(r);
  rig.right->Close(rights.back().timestamp());
  ASSERT_TRUE(engine.WaitUntilFinishedFor(std::chrono::seconds(60)));
  ASSERT_TRUE(engine.RunResult().ok());
  EXPECT_EQ(Sorted(rig.sink->TakeResults()), Sorted(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, ShjSkewTest,
    ::testing::Values(ExecutionMode::kGts, ExecutionMode::kOts,
                      ExecutionMode::kHmts),
    [](const ::testing::TestParamInfo<ExecutionMode>& info) {
      return std::string(ExecutionModeToString(info.param));
    });

TEST(SnjTest, ScheduleIndependentWindowBand) {
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", 100, SymmetricNlJoin::EqualAttr(0, 0));
  rig.right->Push(Tuple::OfInt(7, 1000));
  rig.left->Push(Tuple::OfInt(7, 10));
  EXPECT_EQ(rig.sink->size(), 0u);
  rig.left->Push(Tuple::OfInt(7, 1001));
  EXPECT_EQ(rig.sink->size(), 1u);
}

TEST(SnjTest, ArbitraryPredicate) {
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", 1000,
                            [](const Tuple& l, const Tuple& r) {
                              return l.IntAt(0) < r.IntAt(0);
                            });
  rig.left->Push(Tuple::OfInt(5, 1));
  rig.right->Push(Tuple::OfInt(10, 2));  // 5 < 10: match
  rig.right->Push(Tuple::OfInt(3, 3));   // 5 < 3: no
  EXPECT_EQ(rig.sink->size(), 1u);
}

TEST(SnjTest, OutputAlwaysLeftThenRight) {
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", 1000, SymmetricNlJoin::EqualAttr(0, 0));
  rig.right->Push(Tuple({Value(1), Value("R")}, 1));
  rig.left->Push(Tuple({Value(1), Value("L")}, 2));
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].StringAt(1), "L");
  EXPECT_EQ(results[0].StringAt(3), "R");
}

class JoinOracleTest : public ::testing::TestWithParam<
                           std::tuple<uint64_t, int64_t, AppTime>> {};

TEST_P(JoinOracleTest, ShjMatchesOracle) {
  const auto [seed, key_range, window] = GetParam();
  const auto events = MakeWorkload(seed, 400, key_range);
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", window);
  rig.Feed(events);
  EXPECT_EQ(Sorted(rig.sink->TakeResults()),
            Sorted(OracleJoin(events, window)));
}

TEST_P(JoinOracleTest, SnjMatchesOracleOnEquiJoin) {
  const auto [seed, key_range, window] = GetParam();
  const auto events = MakeWorkload(seed, 400, key_range);
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", window, SymmetricNlJoin::EqualAttr(0, 0));
  rig.Feed(events);
  EXPECT_EQ(Sorted(rig.sink->TakeResults()),
            Sorted(OracleJoin(events, window)));
}

TEST_P(JoinOracleTest, ShjAndSnjAgree) {
  const auto [seed, key_range, window] = GetParam();
  const auto events = MakeWorkload(seed, 400, key_range);
  JoinRig hash_rig;
  hash_rig.Wire<SymmetricHashJoin>("j", window);
  hash_rig.Feed(events);
  JoinRig nl_rig;
  nl_rig.Wire<SymmetricNlJoin>("j", window,
                               SymmetricNlJoin::EqualAttr(0, 0));
  nl_rig.Feed(events);
  EXPECT_EQ(Sorted(hash_rig.sink->TakeResults()),
            Sorted(nl_rig.sink->TakeResults()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinOracleTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(int64_t{5}, int64_t{50}),
                       ::testing::Values(AppTime{100}, AppTime{5000})));

TEST(MultiwayJoinTest, ThreeWayMatch) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  Source* c = g.Add<Source>("c");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 1000, std::vector<size_t>{0, 0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(c, join, 2).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  a->Push(Tuple({Value(1), Value("A")}, 1));
  b->Push(Tuple({Value(1), Value("B")}, 2));
  EXPECT_EQ(sink->size(), 0u) << "needs all three inputs";
  c->Push(Tuple({Value(1), Value("C")}, 3));
  auto results = sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].arity(), 6u);
  EXPECT_EQ(results[0].StringAt(1), "A");
  EXPECT_EQ(results[0].StringAt(3), "B");
  EXPECT_EQ(results[0].StringAt(5), "C");
  EXPECT_EQ(results[0].timestamp(), 3);
}

TEST(MultiwayJoinTest, EmitsAllCombinations) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 1000, std::vector<size_t>{0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  a->Push(Tuple::OfInt(1, 1));
  a->Push(Tuple::OfInt(1, 2));
  b->Push(Tuple::OfInt(1, 3));
  EXPECT_EQ(sink->size(), 2u);
}

TEST(MultiwayJoinTest, TwoWayAgreesWithShj) {
  const auto events = MakeWorkload(99, 300, 10);
  JoinRig shj_rig;
  shj_rig.Wire<SymmetricHashJoin>("j", 500);
  shj_rig.Feed(events);

  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 500, std::vector<size_t>{0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  for (const Event& e : events) (e.side == 0 ? a : b)->Push(e.tuple);

  // Timestamps of results can differ (MJoin takes max over parts; SHJ max
  // over the pair) — compare attribute content only.
  auto strip = [](std::vector<Tuple> v) {
    for (Tuple& t : v) t.set_timestamp(0);
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(strip(sink->TakeResults()),
            strip(shj_rig.sink->TakeResults()));
}

TEST(MultiwayJoinTest, WindowExpiration) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 100, std::vector<size_t>{0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  a->Push(Tuple::OfInt(1, 0));
  b->Push(Tuple::OfInt(1, 300));
  EXPECT_EQ(sink->size(), 0u);
  EXPECT_EQ(join->StateSize(), 1u);
}

}  // namespace
}  // namespace flexstream
