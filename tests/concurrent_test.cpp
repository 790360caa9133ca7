#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrent/blocking_queue.hpp"
#include "concurrent/mpsc_queue.hpp"
#include "concurrent/spsc_ring.hpp"
#include "concurrent/thread_pool.hpp"

namespace hetsgd::concurrent {
namespace {

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueue, TryPopEmpty) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CrossThreadDelivery) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(i);
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, CloseStopsProducersAfterDrain) {
  MpscQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpscQueue, MultiProducerCountIntegrity) {
  MpscQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      auto v = q.pop();
      ASSERT_TRUE(v.has_value());
      seen.push_back(*v);
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();
  // Every value delivered exactly once.
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
  // Per-producer FIFO is implied by the full-order check above only per
  // value; verify explicitly on a fresh queue.
}

TEST(MpscQueue, PerProducerOrderPreserved) {
  MpscQueue<std::pair<int, int>> q;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 3000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push({p, i}));
      }
    });
  }
  std::vector<int> next(kProducers, 0);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->second, next[static_cast<std::size_t>(v->first)]++);
  }
  for (auto& t : producers) t.join();
}

// Stress the close() vs pop_for() interleaving: consumers parked inside
// pop_for's sleep/wake protocol must all wake and observe the drain-then-
// nullopt sequence when producers race a close. Exercises the sleeping_
// flag handshake under contention (a lost wakeup here -> this test hangs
// until the 2s pop_for deadline and the count check fails).
TEST(MpscQueue, ClosePopForInterleavingStress) {
  constexpr int kRounds = 50;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  for (int round = 0; round < kRounds; ++round) {
    MpscQueue<int> q;
    std::atomic<int> pushed{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          // After close, push must reject; count only accepted values.
          if (q.push(i)) pushed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    int popped = 0;
    std::thread consumer([&] {
      // Mix short-timeout (forces the sleep path) and long-timeout pops.
      for (;;) {
        auto v = q.pop_for(std::chrono::milliseconds(popped % 2 == 0 ? 0 : 2000));
        if (v.has_value()) {
          ++popped;
        } else if (q.closed()) {
          // Drained-and-closed is the only sanctioned nullopt exit here
          // once the final drain below confirms emptiness.
          if (!q.try_pop().has_value()) break;
          ++popped;
        }
        // Timeout on an open queue: keep going.
      }
    });
    // Close mid-stream on even rounds, after the producers on odd rounds,
    // to vary which pushes lose the race.
    if (round % 2 == 0) {
      q.close();
      for (auto& t : producers) t.join();
    } else {
      for (auto& t : producers) t.join();
      q.close();
    }
    consumer.join();
    EXPECT_EQ(popped, pushed.load()) << "round " << round;
  }
}

// A push that returns true must reach the consumer even when close()
// lands while the producer is between its closed check and linking its
// node: the consumer's drained-and-closed nullopt may only come after
// every accepted push is visible. Many short rounds with close racing the
// producers make that window likely to be hit at least once.
TEST(MpscQueue, PushAcceptedAcrossCloseIsNeverLost) {
  constexpr int kRounds = 4000;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  int lost_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    MpscQueue<int> q;
    std::atomic<int> pushed{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          if (q.push(i)) pushed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    int popped = 0;
    std::thread consumer([&] {
      while (q.pop().has_value()) ++popped;
    });
    q.close();
    for (auto& t : producers) t.join();
    consumer.join();
    if (popped != pushed.load()) ++lost_rounds;
  }
  EXPECT_EQ(lost_rounds, 0);
}

TEST(SpscRing, PushPop) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.try_pop().value(), 1);
  EXPECT_EQ(ring.try_pop().value(), 2);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, FullRejects) {
  SpscRing<int> ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(3));
}

TEST(SpscRing, CapacityRoundsToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(SpscRing, CrossThreadStream) {
  SpscRing<int> ring(64);
  constexpr int kCount = 100000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (ring.try_push(i)) ++i;
    }
  });
  int expected = 0;
  while (expected < kCount) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected++);
    }
  }
  producer.join();
}

// Index wraparound: with a tiny ring and far more pushes than capacity,
// the monotonically increasing head/tail counters lap the buffer many
// times; masking must keep slots disjoint and FIFO intact. Values carry a
// payload distinct from their index so a masking bug shows up as a value
// mismatch, not just a reorder.
TEST(SpscRing, WraparoundPreservesFifoAcrossManyLaps) {
  SpscRing<std::pair<int, int>> ring(4);  // capacity 4 -> thousands of laps
  constexpr int kCount = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kCount;) {
      if (ring.try_push({i, i * 31 + 7})) {
        ++i;
      } else {
        std::this_thread::yield();  // full: let the consumer drain
      }
    }
  });
  for (int expected = 0; expected < kCount;) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(v->first, expected);
      ASSERT_EQ(v->second, expected * 31 + 7);
      ++expected;
    } else {
      std::this_thread::yield();  // empty: let the producer refill
    }
  }
  EXPECT_FALSE(ring.try_pop().has_value());
  producer.join();
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 3u);  // +1 caller lane
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunOnAllUsesDistinctLanes) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> lane_hits(3);
  pool.run_on_all([&](std::size_t lane) {
    ASSERT_LT(lane, 3u);
    lane_hits[lane].fetch_add(1);
  });
  for (auto& h : lane_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialJobsDoNotInterfere) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for(10, [&](std::size_t b, std::size_t e, std::size_t) {
      total.fetch_add(static_cast<long>(e - b));
    });
  }
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0u);
  int x = 0;
  pool.parallel_for(5, [&](std::size_t b, std::size_t e, std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    x += static_cast<int>(e - b);
  });
  EXPECT_EQ(x, 5);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace hetsgd::concurrent
