// QueueOp: thread-safe enqueue, FIFO drain, EOS forwarding, listeners.

#include "queue/queue_op.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "graph/query_graph.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "test_util.h"
#include "tuple/batch_pool.h"
#include "tuple/schema.h"

namespace flexstream {
namespace {

// src -> queue -> sink, drained manually (tests/harness/test_util.h).
using QueueRig = testutil::QueueRig;

TEST(QueueOpTest, BuffersUntilDrained) {
  QueueRig rig;
  rig.src->Push(Tuple::OfInt(1, 1));
  rig.src->Push(Tuple::OfInt(2, 2));
  EXPECT_EQ(rig.queue->Size(), 2u);
  EXPECT_EQ(rig.sink->size(), 0u) << "queue decouples: nothing flows yet";
  EXPECT_EQ(rig.queue->DrainBatch(10), 2u);
  EXPECT_EQ(rig.sink->size(), 2u);
  EXPECT_EQ(rig.queue->Size(), 0u);
}

TEST(QueueOpTest, DrainRespectsBatchLimit) {
  QueueRig rig;
  for (int i = 0; i < 10; ++i) rig.src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(rig.queue->DrainBatch(3), 3u);
  EXPECT_EQ(rig.queue->Size(), 7u);
  EXPECT_EQ(rig.sink->size(), 3u);
}

TEST(QueueOpTest, FifoOrderPreserved) {
  QueueRig rig;
  for (int i = 0; i < 5; ++i) rig.src->Push(Tuple::OfInt(i, i));
  rig.queue->DrainBatch(100);
  auto results = rig.sink->TakeResults();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

TEST(QueueOpTest, EosForwardedOnceAfterData) {
  QueueRig rig;
  rig.src->Push(Tuple::OfInt(1, 1));
  rig.src->Close(2);
  EXPECT_TRUE(rig.queue->InputClosed());
  EXPECT_FALSE(rig.queue->Exhausted()) << "EOS still queued";
  EXPECT_FALSE(rig.sink->closed());
  rig.queue->DrainBatch(100);
  EXPECT_TRUE(rig.queue->Exhausted());
  EXPECT_TRUE(rig.sink->closed());
}

TEST(QueueOpTest, DrainStopsAtEos) {
  QueueRig rig;
  rig.src->Push(Tuple::OfInt(1, 1));
  rig.src->Close(1);
  // One call drains the data element and the EOS (batch allows more).
  EXPECT_EQ(rig.queue->DrainBatch(100), 1u);
  EXPECT_TRUE(rig.queue->Exhausted());
}

TEST(QueueOpTest, MultiProducerEosCounting) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  QueueOp* q = g.Add<QueueOp>("q");
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, q).ok());
  ASSERT_TRUE(g.Connect(b, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  a->Push(Tuple::OfInt(1, 1));
  a->Close(1);
  q->DrainBatch(100);
  EXPECT_FALSE(q->InputClosed()) << "b still open";
  EXPECT_FALSE(sink->closed());
  b->Push(Tuple::OfInt(2, 2));
  b->Close(2);
  q->DrainBatch(100);
  EXPECT_TRUE(sink->closed());
  EXPECT_EQ(sink->size(), 2u);
}

TEST(QueueOpTest, HeadSeqOrdersAcrossQueues) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  QueueOp* qa = g.Add<QueueOp>("qa");
  QueueOp* qb = g.Add<QueueOp>("qb");
  CollectingSink* sa = g.Add<CollectingSink>("sa");
  CollectingSink* sb = g.Add<CollectingSink>("sb");
  ASSERT_TRUE(g.Connect(a, qa).ok());
  ASSERT_TRUE(g.Connect(b, qb).ok());
  ASSERT_TRUE(g.Connect(qa, sa).ok());
  ASSERT_TRUE(g.Connect(qb, sb).ok());
  EXPECT_EQ(qa->HeadSeq(), QueueOp::kNoSeq);
  a->Push(Tuple::OfInt(1, 1));
  b->Push(Tuple::OfInt(2, 2));
  a->Push(Tuple::OfInt(3, 3));
  EXPECT_LT(qa->HeadSeq(), qb->HeadSeq())
      << "a's first element arrived before b's";
}

TEST(QueueOpTest, PeakSizeTracksHighWater) {
  QueueRig rig;
  for (int i = 0; i < 7; ++i) rig.src->Push(Tuple::OfInt(i, i));
  rig.queue->DrainBatch(5);
  rig.src->Push(Tuple::OfInt(9, 9));
  EXPECT_EQ(rig.queue->PeakSize(), 7u);
}

TEST(QueueOpTest, ListenerCoalescedToEmptyTransitions) {
  QueueRig rig;
  std::atomic<int> notified{0};
  rig.queue->SetEnqueueListener([&] { notified.fetch_add(1); });
  rig.src->Push(Tuple::OfInt(1, 1));
  EXPECT_EQ(notified.load(), 1) << "empty -> non-empty notifies";
  rig.src->Push(Tuple::OfInt(2, 2));
  rig.src->Push(Tuple::OfInt(3, 3));
  EXPECT_EQ(notified.load(), 1)
      << "enqueues into a non-empty queue are coalesced";
  rig.queue->DrainBatch(100);
  rig.src->Push(Tuple::OfInt(4, 4));
  EXPECT_EQ(notified.load(), 2) << "drained empty, so the next push notifies";
  rig.src->Close(4);
  EXPECT_EQ(notified.load(), 3) << "EOS enqueue always notifies";
  EXPECT_EQ(rig.queue->notifications(), 3);
}

TEST(QueueOpTest, ResetClearsEverything) {
  QueueRig rig;
  rig.src->Push(Tuple::OfInt(1, 1));
  rig.src->Close(1);
  rig.graph.ResetAll();
  EXPECT_EQ(rig.queue->Size(), 0u);
  EXPECT_FALSE(rig.queue->InputClosed());
  EXPECT_FALSE(rig.queue->Exhausted());
  EXPECT_EQ(rig.queue->PeakSize(), 0u);
  EXPECT_EQ(rig.queue->HeadSeq(), QueueOp::kNoSeq);
}

TEST(QueueOpTest, SingleProducerModeDrainsFifoThroughRing) {
  QueueRig rig;
  rig.queue->SetSingleProducer(true);
  for (int i = 0; i < 5; ++i) rig.src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(rig.queue->Size(), 5u);
  EXPECT_EQ(rig.queue->ring_pushes(), 5);
  EXPECT_EQ(rig.queue->locked_pushes(), 0);
  EXPECT_EQ(rig.queue->DrainBatch(100), 5u);
  auto results = rig.sink->TakeResults();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(results[i].IntAt(0), i);
}

TEST(QueueOpTest, SingleProducerOverflowSpillsAndKeepsOrder) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  // Tiny ring: capacity rounds up to 4, so most pushes spill.
  QueueOp* q = g.Add<QueueOp>("q", /*ring_capacity=*/4);
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  q->SetSingleProducer(true);
  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(q->Size(), static_cast<size_t>(kCount));
  EXPECT_GT(q->locked_pushes(), 0) << "the tiny ring must have overflowed";
  // Interleave partial drains with more pushes so ring and spillover both
  // hold elements while draining.
  EXPECT_EQ(q->DrainBatch(10), 10u);
  for (int i = kCount; i < kCount + 20; ++i) src->Push(Tuple::OfInt(i, i));
  while (q->Size() > 0) q->DrainBatch(7);
  src->Close(kCount + 20);
  q->DrainBatch(100);
  EXPECT_TRUE(q->Exhausted());
  EXPECT_TRUE(sink->closed());
  auto results = sink->TakeResults();
  ASSERT_EQ(results.size(), static_cast<size_t>(kCount + 20));
  for (int i = 0; i < kCount + 20; ++i) {
    EXPECT_EQ(results[i].IntAt(0), i) << "FIFO order across ring/spillover";
  }
}

TEST(QueueOpTest, SingleProducerEosThroughRing) {
  QueueRig rig;
  rig.queue->SetSingleProducer(true);
  rig.src->Push(Tuple::OfInt(1, 1));
  rig.src->Close(2);
  EXPECT_TRUE(rig.queue->InputClosed());
  EXPECT_FALSE(rig.queue->Exhausted());
  EXPECT_EQ(rig.queue->DrainBatch(100), 1u);
  EXPECT_TRUE(rig.queue->Exhausted());
  EXPECT_TRUE(rig.sink->closed());
}

TEST(QueueOpTest, SingleProducerHeadSeqMergesRingAndSpillover) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  QueueOp* q = g.Add<QueueOp>("q", /*ring_capacity=*/2);
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  q->SetSingleProducer(true);
  EXPECT_EQ(q->HeadSeq(), QueueOp::kNoSeq);
  for (int i = 0; i < 6; ++i) src->Push(Tuple::OfInt(i, i));
  ASSERT_GT(q->locked_pushes(), 0);
  const uint64_t head = q->HeadSeq();
  EXPECT_NE(head, QueueOp::kNoSeq);
  // Draining one element must advance the head sequence (the ring holds
  // the oldest elements, the spillover the newest).
  q->DrainBatch(1);
  EXPECT_GT(q->HeadSeq(), head);
}

TEST(QueueOpTest, MoveReceiveAdoptsPayload) {
  QueueRig rig;
  rig.queue->SetSingleProducer(true);
  Tuple t({Value(std::string("payload-string-well-beyond-sso-limits"))}, 7);
  rig.queue->Receive(std::move(t), 0);
  EXPECT_EQ(rig.queue->Size(), 1u);
  rig.queue->DrainBatch(1);
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].StringAt(0),
            "payload-string-well-beyond-sso-limits");
}

TEST(QueueOpTest, ResetClearsSingleProducerState) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  QueueOp* q = g.Add<QueueOp>("q", /*ring_capacity=*/4);
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  q->SetSingleProducer(true);
  for (int i = 0; i < 20; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(20);
  g.ResetAll();
  EXPECT_EQ(q->Size(), 0u);
  EXPECT_FALSE(q->InputClosed());
  EXPECT_FALSE(q->Exhausted());
  EXPECT_EQ(q->HeadSeq(), QueueOp::kNoSeq);
  EXPECT_TRUE(q->has_ring()) << "the ring survives Reset";
  // The queue must be fully usable again after Reset.
  src->Push(Tuple::OfInt(42, 1));
  src->Close(1);
  EXPECT_EQ(q->DrainBatch(10), 1u);
  EXPECT_TRUE(q->Exhausted());
}

/// Logs every delivery verbatim, bypassing the operator's barrier and EOS
/// handling: a data value, "b<epoch>", "c<first>-<last>" for a boxed
/// columnar batch, or "eos".
class DeliveryLog : public Operator {
 public:
  DeliveryLog() : Operator(Kind::kOperator, "log", /*input_arity=*/1) {}

  void Receive(const Tuple& tuple, int) override { Log(tuple); }
  void Receive(Tuple&& tuple, int) override { Log(tuple); }
  void ReceiveBatch(TupleBatch&& batch, int) override {
    for (const Tuple& tuple : batch) Log(tuple);
  }
  void ReceiveColumnar(ColumnarBatchPtr batch, int) override {
    const TupleBatch rows = columnar::MaterializeAndRelease(std::move(batch));
    log.push_back("c" + std::to_string(rows[0].IntAt(0)) + "-" +
                  std::to_string(rows[rows.size() - 1].IntAt(0)));
  }

  std::vector<std::string> log;

 protected:
  void Process(const Tuple&, int) override {}

 private:
  void Log(const Tuple& tuple) {
    if (tuple.is_eos()) {
      log.push_back("eos");
    } else if (tuple.is_barrier()) {
      log.push_back("b" + std::to_string(tuple.epoch()));
    } else {
      log.push_back(std::to_string(tuple.IntAt(0)));
    }
  }
};

// Ring capacity 0: SetSingleProducer(true) cannot add a ring, so every item
// — data, barrier, boxed batch, EOS — travels the locked deque, and the
// drain must keep FIFO order with a head seq that rises item by item.
TEST(QueueOpTest, RinglessSingleProducerKeepsFifoAndHeadSeq) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  QueueOp* q = g.Add<QueueOp>("q", /*ring_capacity=*/0);
  DeliveryLog* out = g.Add<DeliveryLog>();
  ASSERT_TRUE(g.Connect(src, q).ok());
  ASSERT_TRUE(g.Connect(q, out).ok());
  q->SetSingleProducer(true);
  q->SetBatchDelivery(true);  // queues box columnar batches only then
  ASSERT_FALSE(q->has_ring());
  EXPECT_EQ(q->HeadSeq(), QueueOp::kNoSeq);

  q->Receive(Tuple::OfInt(0, 0), 0);
  const uint64_t first = q->HeadSeq();
  ASSERT_NE(first, QueueOp::kNoSeq);
  q->Receive(Tuple::OfInt(1, 1), 0);
  q->Receive(Tuple::EpochBarrier(1), 0);
  ColumnarBatchPtr box =
      columnar::AcquireBatch(MakeSchema({Value::Type::kInt64}));
  for (int64_t v : {2, 3, 4}) ASSERT_TRUE(box->AppendTuple(Tuple::OfInt(v, v)));
  q->ReceiveColumnar(std::move(box), 0);
  q->Receive(Tuple::OfInt(5, 5), 0);
  q->Receive(Tuple::EndOfStream(6), 0);
  EXPECT_TRUE(q->InputClosed());
  EXPECT_EQ(q->HeadSeq(), first) << "later pushes must not move the head";
  EXPECT_EQ(q->ring_pushes(), 0);
  EXPECT_EQ(q->locked_pushes(), 6) << "0, 1, barrier, box, 5, EOS";

  // One item per drain: each step must advance the head seq.
  uint64_t head = first;
  while (!q->Exhausted()) {
    q->DrainBatch(1);
    const uint64_t next = q->HeadSeq();
    if (next == QueueOp::kNoSeq) break;
    EXPECT_GT(next, head);
    head = next;
  }
  EXPECT_TRUE(q->Exhausted());
  EXPECT_EQ(q->HeadSeq(), QueueOp::kNoSeq);
  EXPECT_EQ(out->log, (std::vector<std::string>{"0", "1", "b1", "c2-4", "5",
                                                "eos"}));
}

TEST(QueueOpTest, ConcurrentProducersSingleConsumer) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  QueueOp* q = g.Add<QueueOp>("q");
  CountingSink* sink = g.Add<CountingSink>("sink");
  ASSERT_TRUE(g.Connect(a, q).ok());
  ASSERT_TRUE(g.Connect(b, q).ok());
  ASSERT_TRUE(g.Connect(q, sink).ok());
  constexpr int kPerProducer = 30000;
  std::thread ta([&] {
    for (int i = 0; i < kPerProducer; ++i) a->Push(Tuple::OfInt(i, i));
    a->Close(kPerProducer);
  });
  std::thread tb([&] {
    for (int i = 0; i < kPerProducer; ++i) b->Push(Tuple::OfInt(i, i));
    b->Close(kPerProducer);
  });
  // Consumer drains concurrently with the producers.
  while (!q->Exhausted()) {
    q->DrainBatch(256);
  }
  ta.join();
  tb.join();
  EXPECT_EQ(sink->count(), 2 * kPerProducer);
  EXPECT_TRUE(sink->closed());
}

}  // namespace
}  // namespace flexstream
