// CollectingSink's chunked result store (operators/sink.h): per-epoch
// snapshots share sealed chunks instead of copying every result, restores
// truncate exactly, the durable encoding is the flat byte format earlier
// stores hold, and long checkpointed runs release snapshots iteratively.
//
// Runs under the `check-recovery` CMake target (ctest -R "SinkSnapshot").

#include <any>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "graph/query_graph.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "recovery/state_snapshot.h"
#include "tuple/tuple.h"
#include "util/crc32c.h"

namespace flexstream {
namespace {

/// A tuple exercising every encoded field: timestamp, seq, and int,
/// double and string values.
Tuple Mixed(int i) {
  Tuple tuple({Value(int64_t{i * 7 - 3}), Value(0.5 * i),
               Value(std::string(i % 5, static_cast<char>('a' + i % 26)))},
              1000 + i);
  tuple.set_seq(static_cast<uint64_t>(i) * 3 + 1);
  return tuple;
}

struct SinkRig {
  QueryGraph graph;
  Source* src = nullptr;
  CollectingSink* sink = nullptr;

  SinkRig() {
    QueryBuilder qb(&graph);
    src = qb.AddSource("s");
    sink = qb.CollectSink(src, "collect");
  }

  void Push(int from, int to) {
    for (int i = from; i < to; ++i) src->Push(Mixed(i));
  }

  std::string Encode() const {
    std::string bytes;
    EXPECT_TRUE(sink->EncodeState(sink->SnapshotState(), &bytes).ok());
    return bytes;
  }
};

const CollectingSink::Chunks& ChunksOf(const OperatorSnapshot& snap) {
  return std::any_cast<const CollectingSink::Chunks&>(snap.state);
}

TEST(SinkSnapshotTest, ConsecutiveSnapshotsShareSealedChunks) {
  SinkRig rig;
  constexpr int kChunk = static_cast<int>(CollectingSink::kChunkSize);
  rig.Push(0, 2 * kChunk + 5);
  const OperatorSnapshot first = rig.sink->SnapshotState();
  rig.Push(2 * kChunk + 5, 3 * kChunk + 9);
  const OperatorSnapshot second = rig.sink->SnapshotState();

  const CollectingSink::Chunks& a = ChunksOf(first);
  const CollectingSink::Chunks& b = ChunksOf(second);
  ASSERT_EQ(a.sealed.size(), 2u);
  EXPECT_EQ(a.tail.size(), 5u);
  ASSERT_EQ(b.sealed.size(), 3u);
  EXPECT_EQ(b.tail.size(), 9u);
  // The chunks sealed before the first snapshot are the same objects in
  // both: a snapshot copies pointers and the open tail, not the results.
  for (size_t i = 0; i < a.sealed.size(); ++i) {
    EXPECT_EQ(a.sealed[i].get(), b.sealed[i].get()) << "chunk " << i;
  }
  EXPECT_EQ(first.element_count, 2 * kChunk + 5);
  EXPECT_EQ(second.element_count, 3 * kChunk + 9);
}

TEST(SinkSnapshotTest, RestoreAfterAppendsIsExact) {
  SinkRig rig;
  constexpr int kChunk = static_cast<int>(CollectingSink::kChunkSize);
  rig.Push(0, kChunk + 3);
  const std::vector<Tuple> at_snapshot = rig.sink->Results();
  const OperatorSnapshot snap = rig.sink->SnapshotState();
  // Appends seal the snapshot's tail into a new chunk and open more.
  rig.Push(kChunk + 3, 3 * kChunk);
  ASSERT_EQ(rig.sink->size(), static_cast<size_t>(3 * kChunk));

  rig.sink->RestoreState(snap);
  EXPECT_EQ(rig.sink->Results(), at_snapshot);
  EXPECT_EQ(rig.sink->size(), static_cast<size_t>(kChunk + 3));

  // Replaying the suffix after the restore reproduces the full run, and
  // the snapshot itself was not disturbed by the appends.
  rig.Push(kChunk + 3, 3 * kChunk);
  std::vector<Tuple> expected;
  for (int i = 0; i < 3 * kChunk; ++i) expected.push_back(Mixed(i));
  EXPECT_EQ(rig.sink->Results(), expected);
  EXPECT_EQ(ChunksOf(snap).size(), static_cast<size_t>(kChunk + 3));
}

// Golden bytes of the durable encoding, produced by the flat
// std::vector<Tuple> store this one replaced (count, then every tuple:
// kind, timestamp, seq, arity, values). Stores written before the change
// must keep decoding, and new ones must stay readable by older builds.
constexpr char kGoldenThree[] =
    "\x03\x00\x00\x00\x00\x00\x00\x00\x00\xe8\x03\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\xfd\xff\xff\xff"
    "\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00"
    "\x00\x00\xe9\x03\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00"
    "\x00\x03\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00"
    "\x00\x00\x00\x00\xe0\x3f\x02\x01\x00\x00\x00\x62\x00\xea\x03\x00\x00"
    "\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00"
    "\x0b\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\xf0\x3f"
    "\x02\x02\x00\x00\x00\x63\x63";
// 1000 tuples span several sealed chunks plus a tail; pinned by length
// and CRC32C rather than 46 KB of literal.
constexpr size_t kGoldenThousandLength = 46008;
constexpr uint32_t kGoldenThousandCrc = 0xf30db760;

TEST(SinkSnapshotTest, EncodingMatchesTheFlatFormatGoldenBytes) {
  {
    SinkRig rig;
    rig.Push(0, 3);
    EXPECT_EQ(rig.Encode(),
              std::string(kGoldenThree, sizeof(kGoldenThree) - 1));
  }
  SinkRig rig;
  rig.Push(0, 1000);
  const std::string bytes = rig.Encode();
  EXPECT_EQ(bytes.size(), kGoldenThousandLength);
  EXPECT_EQ(Crc32c(bytes), kGoldenThousandCrc);

  // The golden bytes decode into an equal store.
  Result<OperatorSnapshot> decoded = rig.sink->DecodeState(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->element_count, 1000);
  EXPECT_EQ(ChunksOf(*decoded).Flatten(), rig.sink->Results());
}

TEST(SinkSnapshotTest, HundredThousandEpochsSnapshotAndTearDownFlat) {
  // One result and one snapshot per epoch, keeping the last committed
  // snapshot alive the way the checkpoint coordinator does. A store that
  // chained snapshots as deltas would recurse once per epoch on release;
  // this one releases each snapshot with a flat loop.
  SinkRig rig;
  constexpr int kEpochs = 100'000;
  OperatorSnapshot committed;
  for (int i = 0; i < kEpochs; ++i) {
    rig.src->Push(Tuple::OfInt(i, i));
    committed = rig.sink->SnapshotState();
  }
  EXPECT_EQ(committed.element_count, kEpochs);
  rig.sink->RestoreState(committed);
  rig.sink->Reset();
  committed = OperatorSnapshot();  // the last reference to every chunk
  EXPECT_EQ(rig.sink->size(), 0u);
}

}  // namespace
}  // namespace flexstream
