// Durable state serialization (DESIGN.md §16): every StateSnapshot
// producer's EncodeState/DecodeState pair must round-trip *byte-exactly* —
// encode(decode(encode(snapshot))) == encode(snapshot) — and fail cleanly
// (a Status, never UB) on truncated or garbage bytes. Byte-exactness is
// what makes durable checkpoints deterministic: hash-map state is emitted
// in sorted key order, join sides in arrival order, doubles as IEEE-754
// bit patterns that are never re-folded.
//
// Runs under the `check-durability` CMake target (ctest -R "StateSerde").

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "graph/query_graph.h"
#include "operators/aggregate.h"
#include "operators/count_window_aggregate.h"
#include "operators/distinct.h"
#include "operators/latency_sink.h"
#include "operators/multiway_join.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/symmetric_hash_join.h"
#include "operators/symmetric_nl_join.h"
#include "operators/tumbling_aggregate.h"
#include "recovery/state_snapshot.h"
#include "tuple/tuple.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace flexstream {
namespace {

/// Encode -> decode -> encode must reproduce the first byte string
/// exactly, and a decoded snapshot must be restorable. Returns the
/// canonical bytes for further checks.
std::string ExpectByteExactRoundTrip(StatefulOperator* op) {
  OperatorSnapshot snap = op->SnapshotState();
  std::string bytes;
  Status encoded = op->EncodeState(snap, &bytes);
  EXPECT_TRUE(encoded.ok()) << encoded.message();

  Result<OperatorSnapshot> decoded = op->DecodeState(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().message();
  if (!decoded.ok()) return bytes;

  std::string bytes2;
  Status reencoded = op->EncodeState(*decoded, &bytes2);
  EXPECT_TRUE(reencoded.ok()) << reencoded.message();
  EXPECT_EQ(bytes, bytes2) << "encode(decode(bytes)) != bytes";

  op->RestoreState(*decoded);
  return bytes;
}

/// Every strict prefix of a valid encoding must decode to a clean error;
/// so must garbage.
void ExpectRejectsCorruption(StatefulOperator* op, const std::string& bytes) {
  for (size_t len : {size_t{0}, bytes.size() / 3, bytes.size() - 1}) {
    if (len >= bytes.size()) continue;
    Result<OperatorSnapshot> truncated =
        op->DecodeState(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "accepted truncation to " << len;
  }
  Result<OperatorSnapshot> garbage = op->DecodeState("not a snapshot");
  EXPECT_FALSE(garbage.ok());
}

TEST(StateSerdeTest, SymmetricHashJoinByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricHashJoin* join = qb.HashJoin(left, right, "join", 10'000);
  qb.CollectSink(join, "sink");

  // Multiple keys per side, repeated keys, interleaved arrival.
  left->Push(Tuple::OfInt(1, 10));
  right->Push(Tuple::OfInt(2, 11));
  left->Push(Tuple::OfInt(2, 12));
  left->Push(Tuple::OfInt(1, 13));
  right->Push(Tuple::OfInt(1, 14));

  const std::string bytes = ExpectByteExactRoundTrip(join);
  EXPECT_FALSE(bytes.empty());
  ExpectRejectsCorruption(join, bytes);
}

TEST(StateSerdeTest, SymmetricHashJoinEmptyStateRoundTrips) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricHashJoin* join = qb.HashJoin(left, right, "join", 10'000);
  qb.CollectSink(join, "sink");
  ExpectByteExactRoundTrip(join);
}

TEST(StateSerdeTest, MultiwayJoinByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* a = qb.AddSource("a");
  Source* b = qb.AddSource("b");
  Source* c = qb.AddSource("c");
  MultiwayJoin* join = qb.MJoin({a, b, c}, "mjoin", 10'000, {0, 0, 0});
  qb.CollectSink(join, "sink");

  a->Push(Tuple::OfInt(1, 10));
  b->Push(Tuple::OfInt(1, 11));
  c->Push(Tuple::OfInt(2, 12));
  a->Push(Tuple::OfInt(2, 13));

  const std::string bytes = ExpectByteExactRoundTrip(join);
  ExpectRejectsCorruption(join, bytes);
}

TEST(StateSerdeTest, WindowedAggregateByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  WindowedAggregate::Options options;
  options.kind = AggregateKind::kMin;  // exercises the min/max multiset
  options.group_attr = 0;
  options.window_micros = 10'000;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", options);
  qb.CollectSink(agg, "sink");

  for (int i = 0; i < 8; ++i) src->Push(Tuple::OfInt(i % 3, i + 1));

  const std::string bytes = ExpectByteExactRoundTrip(agg);
  ExpectRejectsCorruption(agg, bytes);
}

TEST(StateSerdeTest, TumblingAggregateByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  TumblingAggregate::Options options;
  options.kind = AggregateKind::kAvg;
  options.group_attr = 0;
  options.window_micros = 1'000;
  TumblingAggregate* agg = qb.Tumbling(src, "tumbling", options);
  qb.CollectSink(agg, "sink");

  // Stay inside one open window so the groups hold partial state.
  for (int i = 0; i < 6; ++i) src->Push(Tuple::OfInt(i % 2, 100 + i));

  const std::string bytes = ExpectByteExactRoundTrip(agg);
  ExpectRejectsCorruption(agg, bytes);
}

TEST(StateSerdeTest, CountWindowAggregateByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CountWindowAggregate::Options options;
  options.kind = AggregateKind::kMax;
  options.window_rows = 4;
  CountWindowAggregate* agg = qb.CountWindow(src, "cw", options);
  qb.CollectSink(agg, "sink");

  for (int i = 0; i < 7; ++i) src->Push(Tuple::OfInt(10 - i, i + 1));

  const std::string bytes = ExpectByteExactRoundTrip(agg);
  ExpectRejectsCorruption(agg, bytes);
}

TEST(StateSerdeTest, SymmetricNlJoinByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricNlJoin* join = qb.NlJoin(
      left, right, "nljoin", 10'000,
      [](const Tuple& l, const Tuple& r) { return l.values() == r.values(); });
  qb.CollectSink(join, "sink");

  left->Push(Tuple::OfInt(1, 10));
  right->Push(Tuple::OfInt(1, 11));
  left->Push(Tuple::OfInt(3, 12));

  const std::string bytes = ExpectByteExactRoundTrip(join);
  ExpectRejectsCorruption(join, bytes);
}

TEST(StateSerdeTest, DistinctByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  Distinct* dedup = qb.Dedup(src, "dedup", 10'000);
  qb.CollectSink(dedup, "sink");

  for (int i = 0; i < 6; ++i) src->Push(Tuple::OfInt(i % 3, i + 1));

  const std::string bytes = ExpectByteExactRoundTrip(dedup);
  ExpectRejectsCorruption(dedup, bytes);
}

TEST(StateSerdeTest, CountingSinkByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CountingSink* sink = qb.CountSink(src, "count");

  for (int i = 0; i < 5; ++i) src->Push(Tuple::OfInt(i, i + 1));

  const std::string bytes = ExpectByteExactRoundTrip(sink);
  ExpectRejectsCorruption(sink, bytes);
  EXPECT_EQ(sink->count(), 5);  // restore kept the count
}

TEST(StateSerdeTest, CollectingSinkByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CollectingSink* sink = qb.CollectSink(src, "collect");

  for (int i = 0; i < 5; ++i) src->Push(Tuple::OfInt(i, i + 1));

  const std::string bytes = ExpectByteExactRoundTrip(sink);
  ExpectRejectsCorruption(sink, bytes);
  EXPECT_EQ(sink->size(), 5u);
}

TEST(StateSerdeTest, LatencySinkByteExact) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  LatencySink* sink = qb.Latency(src, "lat", /*offset_attr=*/0, Now(),
                                 /*phase_attr=*/1);
  for (int i = 0; i < 6; ++i) {
    src->Push(Tuple({Value(int64_t{0}), Value(int64_t{i % 2})}, i + 1));
  }
  ASSERT_EQ(sink->count(), 6);

  const std::string bytes = ExpectByteExactRoundTrip(sink);
  ExpectRejectsCorruption(sink, bytes);
  EXPECT_EQ(sink->count(), 6);
}

// Restored-from-bytes state must be behaviorally identical, not just
// byte-identical: a decoded join joins exactly like the original.
TEST(StateSerdeTest, DecodedJoinStateBehavesIdentically) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricHashJoin* join = qb.HashJoin(left, right, "join", 10'000);
  CollectingSink* sink = qb.CollectSink(join, "sink");

  left->Push(Tuple::OfInt(1, 10));
  left->Push(Tuple::OfInt(2, 11));

  OperatorSnapshot snap = join->SnapshotState();
  std::string bytes;
  ASSERT_TRUE(join->EncodeState(snap, &bytes).ok());

  // Disturb the state, then restore from the *decoded* bytes.
  right->Push(Tuple::OfInt(1, 12));
  Result<OperatorSnapshot> decoded = join->DecodeState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  join->RestoreState(*decoded);
  sink->TakeResults();

  // The decoded state holds left {1, 2} and an empty right side: a right
  // push of key 2 joins exactly once.
  right->Push(Tuple::OfInt(2, 13));
  EXPECT_EQ(sink->TakeResults().size(), 1u);
}


// Decoders reject states that break an invariant the operator relies on
// but only debug builds assert. Each test patches valid bytes into one
// such shape.

/// Overwrites the eight little-endian bytes at `offset` with `bits`.
void Patch64(std::string* bytes, size_t offset, uint64_t bits) {
  ASSERT_LE(offset + 8, bytes->size());
  for (int i = 0; i < 8; ++i) {
    (*bytes)[offset + i] = static_cast<char>(bits >> (8 * i));
  }
}

void ExpectInvalid(StatefulOperator* op, const std::string& bytes) {
  Result<OperatorSnapshot> decoded = op->DecodeState(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status().message();
}

// Expiration pops from the front, so a window out of timestamp order
// would keep expired tuples.
TEST(StateSerdeTest, WindowOutOfTimestampOrderIsRejected) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  Distinct* dedup = qb.Dedup(src, "dedup", 10'000);
  qb.CollectSink(dedup, "sink");
  src->Push(Tuple::OfInt(1, 10));
  src->Push(Tuple::OfInt(2, 20));
  std::string bytes;
  ASSERT_TRUE(dedup->EncodeState(dedup->SnapshotState(), &bytes).ok());
  // Duration (8), count (8), then the first tuple's kind (1) and timestamp.
  Patch64(&bytes, 17, 30);
  ExpectInvalid(dedup, bytes);
}

TEST(StateSerdeTest, JoinWindowOutOfTimestampOrderIsRejected) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricHashJoin* join = qb.HashJoin(left, right, "join", 10'000);
  qb.CollectSink(join, "sink");
  left->Push(Tuple::OfInt(1, 10));
  left->Push(Tuple::OfInt(2, 20));
  std::string bytes;
  ASSERT_TRUE(join->EncodeState(join->SnapshotState(), &bytes).ok());
  // Key attribute (8), count (8), then the first left tuple's kind (1) and
  // timestamp.
  Patch64(&bytes, 17, 30);
  ExpectInvalid(join, bytes);
}

// Eviction erases each evicted window value from the ordered multiset; a
// value missing there would make it erase end().
TEST(StateSerdeTest, CountWindowOrderedValuesMustMatchItsWindow) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CountWindowAggregate::Options options;
  options.kind = AggregateKind::kMin;
  options.window_rows = 4;
  CountWindowAggregate* agg = qb.CountWindow(src, "cw", options);
  qb.CollectSink(agg, "sink");
  src->Push(Tuple::OfDouble(1.0, 1));
  src->Push(Tuple::OfDouble(2.0, 2));
  std::string bytes;
  ASSERT_TRUE(agg->EncodeState(agg->SnapshotState(), &bytes).ok());
  // The ordered values are last; replace the largest, 2.0, with 5.0.
  const double five = 5.0;
  uint64_t bits = 0;
  std::memcpy(&bits, &five, sizeof(bits));
  Patch64(&bytes, bytes.size() - 8, bits);
  ExpectInvalid(agg, bytes);
}

// Golden bytes: each stateful operator's durable encoding of one fixture
// state, as earlier builds wrote it. Durable stores left behind by those
// builds must keep cold-restarting, so these bytes may never change.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// The operator's current state encodes to exactly `golden_hex`, and the
/// golden bytes decode into a snapshot that re-encodes to themselves.
void ExpectGoldenBytes(StatefulOperator* op, std::string_view golden_hex) {
  std::string bytes;
  ASSERT_TRUE(op->EncodeState(op->SnapshotState(), &bytes).ok());
  EXPECT_EQ(Hex(bytes), golden_hex);
  Result<OperatorSnapshot> decoded = op->DecodeState(Unhex(golden_hex));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  std::string reencoded;
  ASSERT_TRUE(op->EncodeState(*decoded, &reencoded).ok());
  EXPECT_EQ(Hex(reencoded), golden_hex);
}

TEST(StateSerdeTest, SymmetricHashJoinGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricHashJoin* join = qb.HashJoin(left, right, "join", 10'000,
                                        /*left_key_attr=*/0,
                                        /*right_key_attr=*/1);
  qb.CollectSink(join, "sink");
  left->Push(Tuple({Value(int64_t{1}), Value(std::string("a"))}, 10));
  right->Push(Tuple({Value(0.5), Value(int64_t{1})}, 11));
  left->Push(Tuple({Value(int64_t{2}), Value(std::string("b"))}, 12));
  left->Push(Tuple({Value(int64_t{1}), Value(std::string("c"))}, 13));
  // The left input's end lifts its expiry mark, so the right tuple at
  // 10'012 expires the tuples at 10 and 11.
  left->Close(13);
  right->Push(Tuple({Value(0.25), Value(int64_t{2})}, 10'012));
  ExpectGoldenBytes(join,
                    "00000000000000000200000000000000000c00000000000000000000"
                    "000000000002000000000200000000000000020100000062000d0000"
                    "00000000000000000000000000020000000001000000000000000201"
                    "0000006301000000000000000100000000000000001c270000000000"
                    "0000000000000000000200000001000000000000d03f000200000000"
                    "000000");
}

TEST(StateSerdeTest, MultiwayJoinGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* a = qb.AddSource("a");
  Source* b = qb.AddSource("b");
  Source* c = qb.AddSource("c");
  MultiwayJoin* join = qb.MJoin({a, b, c}, "mjoin", 10'000, {0, 1, 0});
  qb.CollectSink(join, "sink");
  a->Push(Tuple::OfInt(1, 10));
  b->Push(Tuple({Value(std::string("x")), Value(int64_t{1})}, 11));
  c->Push(Tuple::OfInt(2, 12));
  a->Push(Tuple::OfInt(2, 13));
  ExpectGoldenBytes(join,
                    "0300000000000000000000000200000000000000000a000000000000"
                    "00000000000000000001000000000100000000000000000d00000000"
                    "00000000000000000000000100000000020000000000000001000000"
                    "000000000100000000000000000b0000000000000000000000000000"
                    "00020000000201000000780001000000000000000000000000000000"
                    "0100000000000000000c000000000000000000000000000000010000"
                    "00000200000000000000");
}

TEST(StateSerdeTest, WindowedAggregateGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  WindowedAggregate::Options options;
  options.kind = AggregateKind::kMax;
  options.value_attr = 1;
  options.group_attr = 0;
  options.window_micros = 100;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", options);
  qb.CollectSink(agg, "sink");
  src->Push(Tuple({Value(std::string("k1")), Value(1.5)}, 10));
  src->Push(Tuple({Value(std::string("k2")), Value(2.5)}, 20));
  src->Push(Tuple({Value(std::string("k1")), Value(-0.5)}, 30));
  // Expires the tuples at 10 and 20, emptying group k2.
  src->Push(Tuple({Value(std::string("k1")), Value(4.0)}, 130));
  src->Push(Tuple({Value(std::string("k3")), Value(7.0)}, 131));
  ExpectGoldenBytes(agg,
                    "64000000000000000200000000000000008200000000000000000000"
                    "00000000000200000002020000006b31010000000000001040008300"
                    "00000000000000000000000000000200000002020000006b33010000"
                    "000000001c40020000000000000002020000006b3101000000000000"
                    "00000000000000104001000000000000000000000000001040020200"
                    "00006b3301000000000000000000000000001c400100000000000000"
                    "0000000000001c40");
}

TEST(StateSerdeTest, TumblingAggregateGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  TumblingAggregate::Options options;
  options.kind = AggregateKind::kMin;
  options.value_attr = 1;
  options.group_attr = 0;
  options.window_micros = 1'000;
  TumblingAggregate* agg = qb.Tumbling(src, "tumbling", options);
  qb.CollectSink(agg, "sink");
  src->Push(Tuple({Value(int64_t{2}), Value(5.0)}, 100));
  src->Push(Tuple({Value(int64_t{1}), Value(3.0)}, 200));
  // Closes window 0; window 1 stays open.
  src->Push(Tuple({Value(int64_t{2}), Value(1.0)}, 1'100));
  src->Push(Tuple({Value(int64_t{1}), Value(-2.0)}, 1'200));
  src->Push(Tuple({Value(int64_t{2}), Value(6.0)}, 1'300));
  ExpectGoldenBytes(agg,
                    "01010000000000000002000000000000000001000000000000000100"
                    "00000000000000000000000000c000000000000000c0000000000000"
                    "00c000020000000000000002000000000000000000000000001c4000"
                    "0000000000f03f0000000000001840");
}

TEST(StateSerdeTest, CountWindowAggregateGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CountWindowAggregate::Options options;
  options.kind = AggregateKind::kSum;
  options.window_rows = 3;
  CountWindowAggregate* agg = qb.CountWindow(src, "cw", options);
  qb.CollectSink(agg, "sink");
  for (double v : {0.5, 1.25, -3.0, 8.0}) src->Push(Tuple::OfDouble(v, 1));
  ExpectGoldenBytes(agg,
                    "0300000000000000000000000000f43f00000000000008c000000000"
                    "000020400000000000001940030000000000000000000000000008c0"
                    "000000000000f43f0000000000002040");
}

TEST(StateSerdeTest, SymmetricNlJoinGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("l");
  Source* right = qb.AddSource("r");
  SymmetricNlJoin* join = qb.NlJoin(left, right, "nljoin", 50,
                                    SymmetricNlJoin::EqualAttr(0, 0));
  qb.CollectSink(join, "sink");
  left->Push(Tuple::OfInt(1, 10));
  right->Push(Tuple::OfInt(1, 20));
  // Expires the left tuple at 10.
  left->Push(Tuple::OfInt(2, 70));
  ExpectGoldenBytes(join,
                    "32000000000000000100000000000000004600000000000000000000"
                    "00000000000100000000020000000000000032000000000000000100"
                    "00000000000000140000000000000000000000000000000100000000"
                    "0100000000000000");
}

TEST(StateSerdeTest, DistinctGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  Distinct* dedup = qb.Dedup(src, "dedup", 100, /*key_attrs=*/{1});
  qb.CollectSink(dedup, "sink");
  src->Push(Tuple({Value(int64_t{1}), Value(std::string("a"))}, 10));
  src->Push(Tuple({Value(int64_t{2}), Value(std::string("a"))}, 20));
  src->Push(Tuple({Value(int64_t{3}), Value(std::string("b"))}, 30));
  // Expires the tuples at 10 and 20.
  src->Push(Tuple({Value(int64_t{4}), Value(std::string("b"))}, 125));
  ExpectGoldenBytes(dedup,
                    "64000000000000000200000000000000001e00000000000000000000"
                    "000000000002000000000300000000000000020100000062007d0000"
                    "00000000000000000000000000020000000004000000000000000201"
                    "00000062");
}

TEST(StateSerdeTest, CountingSinkGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  CountingSink* sink = qb.CountSink(src, "count");
  for (int i = 0; i < 3; ++i) src->Push(Tuple::OfInt(i, i));
  ExpectGoldenBytes(sink,
                    "0300000000000000");
}

// A latency sink's histograms depend on the wall clock, so its fixture
// state is installed from the golden bytes: one overall histogram and two
// per-phase ones, each holding the samples built below.
TEST(StateSerdeTest, LatencySinkGoldenBytes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("s");
  LatencySink* sink = qb.Latency(src, "lat", /*offset_attr=*/0, Now(),
                                 /*phase_attr=*/1);
  constexpr std::string_view kGolden =
      "030000001000000001000000000000004d000000010000000000000081000000010000"
      "00000000000300000000000000000000008006c4400000000000000840000000000088"
      "c34002000000000000000000000000000000020000001000000001000000000000004d"
      "000000010000000000000002000000000000000000000000a06f400000000000000840"
      "0000000000406f40070000000000000001000000810000000100000000000000010000"
      "0000000000000000000088c340000000000088c340000000000088c340";
  Result<OperatorSnapshot> decoded = sink->DecodeState(Unhex(kGolden));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  sink->RestoreState(*decoded);
  Histogram overall;
  for (double v : {3.0, 250.0, 1e4}) overall.Add(v);
  EXPECT_EQ(sink->SnapshotHistogram(), overall);
  ExpectGoldenBytes(sink, kGolden);
  std::map<int64_t, Histogram> phases = sink->TakePhaseHistograms();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].count(), 2);
  EXPECT_EQ(phases[7].count(), 1);
}

}  // namespace
}  // namespace flexstream
