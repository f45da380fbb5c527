// Batch delivery through the per-delivery machinery (operators/operator.h,
// DESIGN.md §10/§11/§17): barrier alignment buffers and releases whole
// batches, fault hooks vote and seq stamps are read per element inside
// one batch-level gate, and the columnar door keeps the kernel while an
// armed epoch's channel is open. Every case is checked against the
// per-tuple path it must equal.
//
// Runs under the `check-recovery` CMake target
// (ctest -R "BatchAlignment|BatchFaultHook|BatchSeqStamp|ColumnarAlignment").

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/query_graph.h"
#include "operators/operator.h"
#include "operators/sink.h"
#include "tuple/batch_pool.h"
#include "tuple/columnar_batch.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/tuple_batch.h"
#include "util/run_status.h"

namespace flexstream {
namespace {

/// Stands in for an upstream operator: emits stamped rows, row batches,
/// columnar batches and barriers on demand.
class Feeder : public Operator {
 public:
  explicit Feeder(std::string name)
      : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1) {}

  static Tuple Row(int64_t value) {
    Tuple tuple = Tuple::OfInt(value, value);
    tuple.set_seq(static_cast<uint64_t>(value) * 2 + 1);
    return tuple;
  }

  void Feed(int64_t value) { EmitMove(Row(value)); }

  void FeedBatch(const std::vector<int64_t>& values) {
    TupleBatch batch;
    for (int64_t v : values) batch.PushBack(Row(v));
    EmitBatch(std::move(batch));
  }

  void FeedColumnar(const std::vector<int64_t>& values) {
    ColumnarBatchPtr batch =
        columnar::AcquireBatch(MakeSchema({Value::Type::kInt64}));
    for (int64_t v : values) EXPECT_TRUE(batch->AppendTuple(Row(v)));
    EmitColumnar(std::move(batch));
  }

  void Barrier(uint64_t epoch) { EmitBarrier(Tuple::EpochBarrier(epoch)); }

 protected:
  void Process(const Tuple&, int) override {}
};

/// One recorded delivery: how it arrived ('s' per element via Process,
/// 'b' row batch, 'c' columnar batch), from which sender, with which
/// values.
struct Delivery {
  char how;
  const Node* sender;
  std::vector<int64_t> values;

  friend bool operator==(const Delivery& a, const Delivery& b) {
    return a.how == b.how && a.sender == b.sender && a.values == b.values;
  }
};

/// Records every delivery; emits nothing.
class Recorder : public Operator {
 public:
  Recorder(std::string name, int arity)
      : Operator(Kind::kOperator, std::move(name), arity) {
    MarkColumnarNative();
  }

  std::vector<Delivery> deliveries;

 protected:
  void Process(const Tuple& tuple, int) override {
    deliveries.push_back({'s', CurrentDeliverySender(), {tuple.IntAt(0)}});
  }
  void ProcessBatch(TupleBatch&& batch, int) override {
    Delivery d{'b', CurrentDeliverySender(), {}};
    for (const Tuple& t : batch) d.values.push_back(t.IntAt(0));
    deliveries.push_back(std::move(d));
  }
  void ProcessColumnar(ColumnarBatchPtr batch, int) override {
    Delivery d{'c', CurrentDeliverySender(), {}};
    for (const Tuple& t : columnar::MaterializeAndRelease(std::move(batch))) {
      d.values.push_back(t.IntAt(0));
    }
    deliveries.push_back(std::move(d));
  }
};

/// Two feeders into one variadic recorder (both producers on port 0).
struct FanInRig {
  QueryGraph graph;
  Feeder* a = graph.Add<Feeder>("a");
  Feeder* b = graph.Add<Feeder>("b");
  Recorder* rec = graph.Add<Recorder>("rec", Node::kVariadicArity);

  FanInRig() {
    EXPECT_TRUE(graph.Connect(a, rec, 0).ok());
    EXPECT_TRUE(graph.Connect(b, rec, 0).ok());
  }
};

TEST(BatchAlignmentTest, BlockedChannelBuffersWholeBatchAndReleasesInOrder) {
  FanInRig rig;
  size_t delivered_at_alignment = 0;
  rig.rec->SetEpochCallback([&](uint64_t epoch) {
    if (epoch == 1) delivered_at_alignment = rig.rec->deliveries.size();
  });

  rig.a->Barrier(1);               // channel a blocks
  rig.a->FeedBatch({10, 11, 12});  // post-barrier: buffered whole
  EXPECT_TRUE(rig.rec->deliveries.empty());
  rig.b->FeedBatch({1, 2});  // open channel: delivered whole
  ASSERT_EQ(rig.rec->deliveries.size(), 1u);
  EXPECT_EQ(rig.rec->deliveries[0], (Delivery{'b', rig.b, {1, 2}}));

  rig.b->Barrier(1);  // aligns epoch 1, then releases a's backlog
  EXPECT_EQ(rig.rec->aligned_epoch(), 1u);
  EXPECT_EQ(delivered_at_alignment, 1u)
      << "the snapshot must see exactly the pre-barrier input";
  ASSERT_EQ(rig.rec->deliveries.size(), 2u);
  EXPECT_EQ(rig.rec->deliveries[1], (Delivery{'b', rig.a, {10, 11, 12}}));

  rig.a->FeedBatch({13});  // unblocked again: straight through
  ASSERT_EQ(rig.rec->deliveries.size(), 3u);
  EXPECT_EQ(rig.rec->deliveries[2], (Delivery{'b', rig.a, {13}}));
}

TEST(BatchAlignmentTest, BacklogReleaseStopsAtTheNextBarrier) {
  FanInRig rig;
  rig.a->Barrier(1);
  rig.a->FeedBatch({10, 11});
  rig.a->Barrier(2);
  rig.a->FeedBatch({20});
  rig.a->FeedBatch({21, 22});

  rig.b->Barrier(1);  // releases {10, 11}; a re-blocks at barrier 2
  EXPECT_EQ(rig.rec->aligned_epoch(), 1u);
  ASSERT_EQ(rig.rec->deliveries.size(), 1u);
  EXPECT_EQ(rig.rec->deliveries[0], (Delivery{'b', rig.a, {10, 11}}));

  rig.b->FeedBatch({3});
  rig.b->Barrier(2);  // releases {20, 21, 22} as one run
  EXPECT_EQ(rig.rec->aligned_epoch(), 2u);
  ASSERT_EQ(rig.rec->deliveries.size(), 3u);
  EXPECT_EQ(rig.rec->deliveries[1], (Delivery{'b', rig.b, {3}}));
  EXPECT_EQ(rig.rec->deliveries[2], (Delivery{'b', rig.a, {20, 21, 22}}));
}

/// One feeder into a single-input recorder, with a fault hook that logs
/// every (value, attempt) it is asked about.
struct HookRig {
  QueryGraph graph;
  RunStatus run_status;
  Feeder* feed = graph.Add<Feeder>("feed");
  Recorder* rec = graph.Add<Recorder>("rec", 1);
  std::vector<std::pair<int64_t, int>> asked;

  explicit HookRig(std::map<int64_t, FaultAction> verdicts,
                   int transient_attempts = 0) {
    EXPECT_TRUE(graph.Connect(feed, rec, 0).ok());
    rec->SetRunStatus(&run_status);
    RetryBackoffOptions no_sleep;
    no_sleep.base_micros = 0.0;
    rec->SetRetryBackoff(no_sleep);
    rec->SetFaultHook([this, verdicts, transient_attempts](
                          const Operator&, const Tuple& tuple, int,
                          int attempt) {
      asked.emplace_back(tuple.IntAt(0), attempt);
      const auto it = verdicts.find(tuple.IntAt(0));
      if (it == verdicts.end()) return FaultAction::kProceed;
      if (it->second == FaultAction::kTransientFailure &&
          attempt >= transient_attempts) {
        return FaultAction::kProceed;
      }
      return it->second;
    });
  }

  std::vector<int64_t> Processed() const {
    std::vector<int64_t> values;
    for (const Delivery& d : rec->deliveries) {
      EXPECT_EQ(d.how, 's') << "a hooked operator processes per element";
      values.insert(values.end(), d.values.begin(), d.values.end());
    }
    return values;
  }
};

TEST(BatchFaultHookTest, TransientFaultMidBatchRetriesOnlyThatElement) {
  const std::map<int64_t, FaultAction> verdicts = {
      {3, FaultAction::kTransientFailure}};
  HookRig batched(verdicts, /*transient_attempts=*/2);
  batched.feed->FeedBatch({0, 1, 2, 3, 4, 5});
  HookRig per_tuple(verdicts, /*transient_attempts=*/2);
  for (int64_t v = 0; v < 6; ++v) per_tuple.feed->Feed(v);

  EXPECT_EQ(batched.Processed(), (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(batched.asked,
            (std::vector<std::pair<int64_t, int>>{
                {0, 0}, {1, 0}, {2, 0}, {3, 0}, {3, 1}, {3, 2}, {4, 0},
                {5, 0}}));
  EXPECT_EQ(batched.rec->fault_retries(), 2);
  EXPECT_FALSE(batched.rec->failed());
  EXPECT_EQ(batched.asked, per_tuple.asked);
  EXPECT_EQ(batched.Processed(), per_tuple.Processed());
}

TEST(BatchFaultHookTest, PermanentFaultMidBatchDropsTheRestAndAfter) {
  const std::map<int64_t, FaultAction> verdicts = {
      {2, FaultAction::kPermanentFailure}};
  HookRig batched(verdicts);
  batched.feed->FeedBatch({0, 1, 2, 3, 4, 5});
  batched.feed->FeedBatch({6, 7});
  batched.feed->Feed(8);
  HookRig per_tuple(verdicts);
  for (int64_t v = 0; v < 9; ++v) per_tuple.feed->Feed(v);

  EXPECT_EQ(batched.Processed(), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(batched.asked,
            (std::vector<std::pair<int64_t, int>>{{0, 0}, {1, 0}, {2, 0}}));
  EXPECT_TRUE(batched.rec->failed());
  EXPECT_EQ(batched.run_status.origin(), "rec");
  EXPECT_EQ(batched.asked, per_tuple.asked);
  EXPECT_EQ(batched.Processed(), per_tuple.Processed());
  EXPECT_TRUE(per_tuple.rec->failed());
}

/// Emits two outputs per input (v and 100 + v), seq-stamped with the
/// input's arrival sequence.
class Doubler : public Operator {
 public:
  explicit Doubler(std::string name)
      : Operator(Kind::kOperator, std::move(name), 1) {
    SetStampEmitSeq(true);
  }

 protected:
  void Process(const Tuple& tuple, int) override {
    Emit(tuple);
    EmitMove(Tuple::OfInt(100 + tuple.IntAt(0), tuple.timestamp()));
  }
};

std::vector<std::pair<int64_t, uint64_t>> RunDoubler(bool batched) {
  QueryGraph graph;
  Feeder* feed = graph.Add<Feeder>("feed");
  Doubler* dbl = graph.Add<Doubler>("dbl");
  CollectingSink* sink = graph.Add<CollectingSink>("sink");
  EXPECT_TRUE(graph.Connect(feed, dbl, 0).ok());
  EXPECT_TRUE(graph.Connect(dbl, sink, 0).ok());
  auto send = [&](const std::vector<int64_t>& values) {
    if (batched) {
      feed->FeedBatch(values);
    } else {
      for (int64_t v : values) feed->Feed(v);
    }
  };
  send({5, 9, 12});
  // Arm alignment the way it is on a checkpointed shard replica.
  feed->Barrier(1);
  send({20, 21});
  EXPECT_EQ(dbl->aligned_epoch(), 1u);
  std::vector<std::pair<int64_t, uint64_t>> out;
  for (const Tuple& t : sink->TakeResults()) out.emplace_back(t.IntAt(0), t.seq());
  return out;
}

TEST(BatchSeqStampTest, StampsInsideABatchEqualPerTupleStamps) {
  const auto batched = RunDoubler(/*batched=*/true);
  EXPECT_EQ(batched, RunDoubler(/*batched=*/false));
  // Both outputs of an input carry that input's stamp (Feeder::Row).
  EXPECT_EQ(batched, (std::vector<std::pair<int64_t, uint64_t>>{
                         {5, 11}, {105, 11}, {9, 19}, {109, 19}, {12, 25},
                         {112, 25}, {20, 41}, {120, 41}, {21, 43},
                         {121, 43}}));
}

TEST(ColumnarAlignmentTest, OpenChannelKeepsTheKernelBlockedMaterializes) {
  FanInRig rig;
  rig.a->Barrier(1);
  rig.a->FeedColumnar({10, 11});  // blocked: rows into the backlog
  EXPECT_TRUE(rig.rec->deliveries.empty());
  rig.b->FeedColumnar({1, 2, 3});  // armed but open: columnar kernel
  ASSERT_EQ(rig.rec->deliveries.size(), 1u);
  EXPECT_EQ(rig.rec->deliveries[0], (Delivery{'c', rig.b, {1, 2, 3}}));

  rig.b->Barrier(1);
  ASSERT_EQ(rig.rec->deliveries.size(), 2u);
  EXPECT_EQ(rig.rec->deliveries[1], (Delivery{'b', rig.a, {10, 11}}));
  rig.a->FeedColumnar({12});
  ASSERT_EQ(rig.rec->deliveries.size(), 3u);
  EXPECT_EQ(rig.rec->deliveries[2], (Delivery{'c', rig.a, {12}}));
}

TEST(ColumnarAlignmentTest, FaultHookStillTakesTheRowPath) {
  HookRig rig({});
  rig.feed->FeedColumnar({1, 2});
  EXPECT_EQ(rig.Processed(), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(rig.asked,
            (std::vector<std::pair<int64_t, int>>{{1, 0}, {2, 0}}));
}

}  // namespace
}  // namespace flexstream
