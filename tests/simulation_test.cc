#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/queueing_server.h"

namespace proteus::sim {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, EqualTimestampsFireFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.schedule_after(10, step);
  };
  sim.schedule_at(0, step);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

// Counts copies of itself made anywhere between schedule_at and the run.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
  CopyCounter& operator=(const CopyCounter& o) {
    copies = o.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&& o) noexcept {
    copies = o.copies;
    return *this;
  }
};

TEST(Simulation, CallbacksAreNeverCopied) {
  Simulation sim;
  int copies = 0;
  int runs = 0;
  // Enough co-pending events that the heap sifts entries around the one
  // under test in both directions.
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at((i * 37) % 64, [c = CopyCounter(&copies), &runs] { ++runs; });
  }
  copies = 0;  // building the std::function may copy; the queue must not
  sim.run();
  EXPECT_EQ(runs, 64);
  EXPECT_EQ(copies, 0);
}

TEST(Simulation, ScheduleAtNowFromCallbackRunsAfterQueuedPeers) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(0);
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(10, [&] { order.push_back(2); });
  sim.schedule_at(11, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, SlabGrowsUnderLargeCapturesScheduledFromACallback) {
  Simulation sim;
  constexpr int kEvents = 10'000;
  std::vector<int> order;
  order.reserve(kEvents);
  sim.schedule_at(0, [&] {
    for (int i = 0; i < kEvents; ++i) {
      std::array<char, 64> pad{};
      pad.fill(static_cast<char>(i));
      std::string key = "key-" + std::to_string(i);
      sim.schedule_after(1 + i / 100, [&order, i, key = std::move(key), pad] {
        EXPECT_EQ(key, "key-" + std::to_string(i));
        EXPECT_EQ(pad[63], static_cast<char>(i));
        order.push_back(i);
      });
    }
  });
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, PendingCapturesLiveUntilRunOrDestroyed) {
  auto token = std::make_shared<int>(7);
  {
    Simulation sim;
    sim.schedule_at(10, [token] {});
    sim.schedule_at(20, [token] {});
    sim.schedule_at(30, [token] {});
    EXPECT_EQ(token.use_count(), 4);
    sim.run_until(20);
    // The two events that ran released their captures; the queued one keeps
    // its capture alive.
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(QueueingServer, ServesWithinConcurrency) {
  Simulation sim;
  QueueingServer server(sim, "s", 2);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    server.submit(100, [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  // Two slots: jobs finish at 100, 100, 200, 200.
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_EQ(completions[0], 100);
  EXPECT_EQ(completions[1], 100);
  EXPECT_EQ(completions[2], 200);
  EXPECT_EQ(completions[3], 200);
  EXPECT_EQ(server.completions(), 4u);
  EXPECT_EQ(server.max_queue_depth(), 2u);
}

TEST(QueueingServer, FifoQueueDiscipline) {
  Simulation sim;
  QueueingServer server(sim, "s", 1);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    server.submit(10, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(QueueingServer, TracksWaitTime) {
  Simulation sim;
  QueueingServer server(sim, "s", 1);
  server.submit(100, [] {});
  server.submit(100, [] {});  // waits 100
  server.submit(100, [] {});  // waits 200
  sim.run();
  EXPECT_EQ(server.total_wait_time(), 300);
  EXPECT_EQ(server.total_busy_time(), 300);
}

TEST(QueueingServer, UtilizationReflectsBusyFraction) {
  Simulation sim;
  QueueingServer server(sim, "s", 1);
  server.submit(500, [] {});
  sim.schedule_at(1000, [] {});  // extend the clock
  sim.run();
  EXPECT_NEAR(server.utilization(), 0.5, 1e-9);
}

TEST(QueueingServer, OverloadBuildsQueue) {
  Simulation sim;
  QueueingServer server(sim, "s", 1);
  // Offered load 2x capacity: arrivals every 50, service 100.
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(i * 50, [&] { server.submit(100, [] {}); });
  }
  sim.run();
  EXPECT_GE(server.max_queue_depth(), 8u);
}

}  // namespace
}  // namespace proteus::sim
