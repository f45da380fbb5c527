#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "util/spsc_ring.h"

namespace flexstream {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRingTest, PushPopSingleThread) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_EQ(ring.SizeApprox(), 2u);
  EXPECT_EQ(ring.TryPop().value(), 1);
  EXPECT_EQ(ring.TryPop().value(), 2);
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, FullRingRejectsPush) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  ring.TryPop();
  EXPECT_TRUE(ring.TryPush(3));
}

TEST(SpscRingTest, WrapAroundPreservesOrder) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.TryPush(round * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(ring.TryPop().value(), round * 10 + i);
    }
  }
}

TEST(SpscRingTest, FrontPeeksWithoutPopping) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);
  ring.TryPush(7);
  ring.TryPush(8);
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 7);
  EXPECT_EQ(ring.SizeApprox(), 2u) << "peeking does not consume";
  EXPECT_EQ(ring.TryPop().value(), 7);
  EXPECT_EQ(*ring.Front(), 8);
}

TEST(SpscRingTest, FullApproxMatchesTryPush) {
  SpscRing<int> ring(2);
  EXPECT_FALSE(ring.FullApprox());
  ring.TryPush(1);
  ring.TryPush(2);
  EXPECT_TRUE(ring.FullApprox());
  ring.TryPop();
  EXPECT_FALSE(ring.FullApprox());
}

TEST(SpscRingTest, PopReleasesSlotPayload) {
  // Regression: TryPop used to leave the moved-from element in the slot,
  // keeping its heap payload alive until the slot was overwritten by a
  // later push. The pop must reset the slot.
  SpscRing<std::shared_ptr<int>> ring(4);
  auto payload = std::make_shared<int>(42);
  ASSERT_TRUE(ring.TryPush(payload));
  EXPECT_EQ(payload.use_count(), 2);
  {
    auto popped = ring.TryPop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(payload.use_count(), 2) << "popped copy + ours";
  }
  EXPECT_EQ(payload.use_count(), 1)
      << "after the popped value dies, no slot reference may remain";

  // Same for PopInto.
  ASSERT_TRUE(ring.TryPush(payload));
  std::shared_ptr<int> out;
  ASSERT_TRUE(ring.PopInto(&out));
  out.reset();
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(SpscRingTest, PushUncheckedAndInPlaceFrontConsumption) {
  // The QueueOp hot path: PushUnchecked after a !FullApprox() check on the
  // producer side, FrontMutable + PopFront (move the payload out in place)
  // on the consumer side. PopFront must give the same slot-release
  // guarantee as TryPop.
  SpscRing<std::shared_ptr<int>> ring(2);
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  ASSERT_FALSE(ring.FullApprox());
  ring.PushUnchecked(std::shared_ptr<int>(a));
  ASSERT_FALSE(ring.FullApprox());
  ring.PushUnchecked(std::shared_ptr<int>(b));
  EXPECT_TRUE(ring.FullApprox());
  EXPECT_EQ(ring.AvailableToConsumer(), 2u);

  std::shared_ptr<int>* front = ring.FrontMutable();
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(**front, 1);
  std::shared_ptr<int> taken = std::move(*front);
  ring.PopFront();
  EXPECT_EQ(a.use_count(), 2) << "taken copy + ours, slot released";

  front = ring.FrontMutable();
  ASSERT_NE(front, nullptr);
  EXPECT_EQ(**front, 2);
  ring.PopFront();  // dropped without moving out: reset must release it
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(ring.FrontMutable(), nullptr);
  EXPECT_EQ(ring.AvailableToConsumer(), 0u);
}

TEST(SpscRingTest, BulkPushPeekPopPreservesOrderAcrossWraps) {
  // The batch-delivery hot path: FreeForProducer + PushBulkUnchecked on
  // the producer side, AtFromFront peeks + one PopFrontBulk on the
  // consumer side. Interleave bulk runs so the indices wrap several times.
  SpscRing<int> ring(8);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 10; ++round) {
    const size_t n = ring.FreeForProducer(5);
    ASSERT_GE(n, 5u);
    ring.PushBulkUnchecked(5, [&](size_t i) {
      return next_push + static_cast<int>(i);
    });
    next_push += 5;
    const size_t avail = ring.AvailableToConsumer();
    ASSERT_EQ(avail, 5u);
    for (size_t i = 0; i < avail; ++i) {
      EXPECT_EQ(*ring.AtFromFront(i), next_pop + static_cast<int>(i));
    }
    ring.PopFrontBulk(avail);
    next_pop += 5;
  }
  EXPECT_EQ(ring.AvailableToConsumer(), 0u);
}

TEST(SpscRingTest, FreeForProducerRefreshesOnlyWhenShort) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.FreeForProducer(4), 4u);
  ring.PushBulkUnchecked(4, [](size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(ring.FreeForProducer(1), 0u);
  ring.PopFrontBulk(2);
  // The consumer freed two slots; the producer's next query must see them
  // (the cache refresh happens because fewer than `want` appeared free).
  EXPECT_EQ(ring.FreeForProducer(2), 2u);
}

TEST(SpscRingTest, PopFrontBulkReleasesSlotPayloads) {
  SpscRing<std::shared_ptr<int>> ring(4);
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  ring.PushBulkUnchecked(
      2, [&](size_t i) { return std::shared_ptr<int>(i == 0 ? a : b); });
  EXPECT_EQ(a.use_count(), 2);
  ring.PopFrontBulk(2);  // dropped without moving out: reset must release
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(b.use_count(), 1);
}

TEST(SpscRingTest, BulkProducerConcurrentWithBulkConsumer) {
  SpscRing<int64_t> ring(256);
  constexpr int64_t kCount = 200'000;
  int64_t sum = 0;
  std::thread consumer([&] {
    int64_t received = 0;
    while (received < kCount) {
      const size_t avail = ring.AvailableToConsumer();
      for (size_t i = 0; i < avail; ++i) sum += *ring.AtFromFront(i);
      if (avail > 0) ring.PopFrontBulk(avail);
      received += static_cast<int64_t>(avail);
    }
  });
  int64_t next = 1;
  while (next <= kCount) {
    const size_t space = ring.FreeForProducer(64);
    const size_t n =
        std::min<size_t>(space, static_cast<size_t>(kCount - next + 1));
    if (n == 0) continue;
    ring.PushBulkUnchecked(n, [&](size_t i) {
      return next + static_cast<int64_t>(i);
    });
    next += static_cast<int64_t>(n);
  }
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

TEST(SpscRingTest, ConcurrentProducerConsumer) {
  SpscRing<int64_t> ring(1024);
  constexpr int64_t kCount = 200'000;
  int64_t sum = 0;
  std::thread consumer([&] {
    int64_t received = 0;
    while (received < kCount) {
      auto v = ring.TryPop();
      if (v) {
        sum += *v;
        ++received;
      }
    }
  });
  for (int64_t i = 1; i <= kCount;) {
    if (ring.TryPush(i)) ++i;
  }
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

}  // namespace
}  // namespace flexstream
