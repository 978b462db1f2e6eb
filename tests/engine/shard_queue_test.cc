// Tests for the shard work queue: FIFO delivery, multiple producers, the
// exact capacity bound and backpressure, the drain barrier, and close
// semantics.

#include "engine/shard_queue.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ldpm {
namespace engine {
namespace {

/// A work item whose first eight bytes carry `tag`, so a test can tell
/// items apart after they pass through the queue.
WorkItem TaggedItem(uint64_t tag) {
  WorkItem item(sizeof(tag));
  std::memcpy(item.data(), &tag, sizeof(tag));
  return item;
}

uint64_t TagOf(const WorkItem& item) {
  uint64_t tag = 0;
  std::memcpy(&tag, item.data(), sizeof(tag));
  return tag;
}

// Single producer, single consumer: every pushed item arrives, in order,
// also while the producer is held back by the bound.
TEST(ShardQueue, SingleProducerDeliversInOrder) {
  ShardQueue queue(8);
  constexpr uint64_t kItems = 500;
  std::vector<uint64_t> received;
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) {
      received.push_back(TagOf(item));
      queue.Done();
    }
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    EXPECT_TRUE(queue.Push(TaggedItem(i)));
  }
  queue.WaitDrained();
  queue.Close();
  consumer.join();
  ASSERT_EQ(received.size(), kItems);
  for (uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
}

// Multiple producer threads: nothing is lost or duplicated.
TEST(ShardQueue, MultiProducerDeliversEverything) {
  ShardQueue queue(4);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 200;
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> count{0};
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) {
      sum.fetch_add(TagOf(item));
      count.fetch_add(1);
      queue.Done();
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.Push(TaggedItem(p * kPerProducer + i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.WaitDrained();
  queue.Close();
  consumer.join();
  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// WaitDrained must not return while the consumer is mid-item (popped but
// not Done) even when the queue looks empty.
TEST(ShardQueue, WaitDrainedCoversInFlightItem) {
  ShardQueue queue(4);
  std::atomic<bool> processing{false};
  std::atomic<bool> release{false};
  std::atomic<bool> drained{false};
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) {
      processing.store(true);
      while (!release.load()) std::this_thread::yield();
      queue.Done();
      processing.store(false);
    }
  });
  ASSERT_TRUE(queue.Push(TaggedItem(1)));
  while (!processing.load()) std::this_thread::yield();
  // The single item is popped (queue empty) but not Done.
  std::thread waiter([&] {
    queue.WaitDrained();
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  release.store(true);
  waiter.join();
  EXPECT_TRUE(drained.load());
  queue.Close();
  consumer.join();
}

// A full queue blocks the producer (backpressure) until the consumer makes
// room; nothing is dropped.
TEST(ShardQueue, FullQueueAppliesBackpressure) {
  ShardQueue queue(2);
  constexpr uint64_t kItems = 64;
  std::atomic<uint64_t> received{0};
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      EXPECT_TRUE(queue.Push(TaggedItem(i)));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::thread consumer([&] {
    WorkItem item;
    while (queue.Pop(item)) {
      received.fetch_add(1);
      queue.Done();
    }
  });
  producer.join();
  queue.WaitDrained();
  queue.Close();
  consumer.join();
  EXPECT_EQ(received.load(), kItems);
}

// max_pending is the exact bound: with two items queued, a third Push
// blocks until the consumer pops one.
TEST(ShardQueue, PushBeyondTheBoundBlocksUntilAPop) {
  ShardQueue queue(2);
  ASSERT_TRUE(queue.Push(TaggedItem(1)));
  ASSERT_TRUE(queue.Push(TaggedItem(2)));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(TaggedItem(3)));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pushed.load());
  WorkItem item;
  ASSERT_TRUE(queue.Pop(item));
  EXPECT_EQ(TagOf(item), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  queue.Done();
  for (uint64_t want : {2u, 3u}) {
    ASSERT_TRUE(queue.Pop(item));
    EXPECT_EQ(TagOf(item), want);
    queue.Done();
  }
  queue.Close();
  EXPECT_FALSE(queue.Pop(item));
}

// After Close: queued items still drain, Pop then returns false, and new
// pushes are rejected from every thread.
TEST(ShardQueue, CloseDrainsThenRejects) {
  ShardQueue queue(8);
  ASSERT_TRUE(queue.Push(TaggedItem(7)));
  queue.Close();
  EXPECT_FALSE(queue.Push(TaggedItem(8)));
  std::thread other([&] { EXPECT_FALSE(queue.Push(TaggedItem(9))); });
  other.join();
  WorkItem item;
  ASSERT_TRUE(queue.Pop(item));  // the pre-close item drains
  EXPECT_EQ(TagOf(item), 7u);
  queue.Done();
  EXPECT_FALSE(queue.Pop(item));  // then the queue reports closed
}

}  // namespace
}  // namespace engine
}  // namespace ldpm
