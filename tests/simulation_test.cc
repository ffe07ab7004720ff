#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <array>
#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "sim/callback.h"
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

// Counts live instances, moved-from ones included, so a capture destroyed
// twice drives the count negative and one never destroyed keeps it up.
struct LiveCounter {
  int* live;
  explicit LiveCounter(int* l) : live(l) { ++*live; }
  LiveCounter(const LiveCounter& o) : live(o.live) { ++*live; }
  LiveCounter(LiveCounter&& o) noexcept : live(o.live) { ++*live; }
  LiveCounter& operator=(const LiveCounter&) = delete;
  ~LiveCounter() { --*live; }
};

TEST(Simulation, PendingCapturesLiveUntilRunOrDestroyed) {
  auto token = std::make_shared<int>(7);
  int live = 0;
  // Too large for a small cell: stored in place in a large one.
  std::array<char, CallbackCells::kSmallCellBytes> mid{};
  // Too large for any cell: boxed on the heap.
  std::array<char, 2 * CallbackCells::kCellBytes> big{};
  constexpr SimTime kFar = 3 * Simulation::kNearHorizon;
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

    sim.schedule_at(40, [token, mid, c = LiveCounter(&live)] {});
    sim.schedule_at(50, [token, big, c = LiveCounter(&live)] {});
    sim.schedule_at(kFar, [token, c = LiveCounter(&live)] {});
    sim.schedule_at(kFar, [token, big, c = LiveCounter(&live)] {});
    sim.schedule_at(2 * kFar, [token, c = LiveCounter(&live)] {});
    sim.schedule_at(2 * kFar, [token, mid, c = LiveCounter(&live)] {});
    sim.schedule_at(2 * kFar, [token, big, c = LiveCounter(&live)] {});
    EXPECT_EQ(token.use_count(), 9);
    EXPECT_EQ(live, 7);
    // Runs the events at 30, 40 and 50 and both far ones at kFar; the three
    // at 2 * kFar stay queued.
    sim.run_until(kFar);
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_EQ(live, 3);
    EXPECT_EQ(sim.pending_events(), 3u);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(live, 0);
}

// The event core against a reference: one std::priority_queue ordered by
// (when, seq). Every event fires at most two children whose delays are a
// pure function of the event's id, drawn on a coarse grid so that many
// events share a timestamp, from zero to past the near/far split.
// Independent events are injected between run_until stages, whose horizons
// fall both on and off the grid.
TEST(Simulation, FiresInTheOrderOfOneReferenceHeap) {
  constexpr SimTime kGrid = 10 * kMillisecond;
  constexpr int kMaxEvents = 20'000;
  const auto draw_delay = [](Rng& rng) -> SimTime {
    switch (rng.next_below(5)) {
      case 0:
        return 0;
      case 1:  // just either side of the split, and on it
        return Simulation::kNearHorizon + rng.next_int(-1, 1);
      case 2:  // far: a think time away
        return 5 * Simulation::kNearHorizon;
      default:
        return kGrid * rng.next_int(0, 2 * Simulation::kNearHorizon / kGrid);
    }
  };

  struct Fired {
    int id;
    SimTime at;
    bool operator==(const Fired&) const = default;
  };
  struct Side {
    std::vector<Fired> fired;
    std::vector<bool> far;  // by id: scheduled at least kNearHorizon ahead
    int next_id = 0;
  };
  // Creates an event id scheduled `delay` after `now`; `place(when, id)`
  // queues it.
  const auto create = [](Side& side, SimTime now, SimTime delay,
                         const std::function<void(SimTime, int)>& place) {
    const int id = side.next_id++;
    side.far.push_back(delay >= Simulation::kNearHorizon);
    place(now + delay, id);
  };
  // What firing event `id` at `now` does, on either side.
  const auto fire = [&](Side& side, int id, SimTime now,
                        const std::function<void(SimTime, int)>& place) {
    side.fired.push_back({id, now});
    Rng rng(0x5eed + static_cast<std::uint64_t>(id));
    const auto children = side.next_id < kMaxEvents ? rng.next_below(3) : 0;
    for (std::uint64_t c = 0; c < children; ++c) {
      create(side, now, draw_delay(rng), place);
    }
  };

  Simulation sim;
  Side got;
  std::function<void(SimTime, int)> place_sim = [&](SimTime when, int id) {
    sim.schedule_at(when, [&, id] { fire(got, id, sim.now(), place_sim); });
  };

  struct Ref {
    SimTime when;
    std::uint64_t seq;
    int id;
  };
  struct RefLater {
    bool operator()(const Ref& a, const Ref& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, RefLater> ref;
  std::uint64_t ref_seq = 0;
  SimTime ref_now = 0;
  Side want;
  const std::function<void(SimTime, int)> place_ref = [&](SimTime when,
                                                          int id) {
    ref.push(Ref{when, ref_seq++, id});
  };
  const auto ref_run_until = [&](SimTime horizon) {
    while (!ref.empty() && ref.top().when <= horizon) {
      const Ref e = ref.top();
      ref.pop();
      ref_now = e.when;
      fire(want, e.id, ref_now, place_ref);
    }
    ref_now = std::max(ref_now, horizon);
  };

  Rng stages(11);
  SimTime horizon = 0;
  for (int stage = 0; stage < 60; ++stage) {
    for (int i = 0; i < 8; ++i) {
      const SimTime delay = draw_delay(stages);
      create(got, sim.now(), delay, place_sim);
      create(want, ref_now, delay, place_ref);
    }
    horizon += stage % 2 == 0 ? kGrid * stages.next_int(1, 30)
                              : stages.next_int(1, 300 * kMillisecond);
    sim.run_until(horizon);
    ref_run_until(horizon);
    ASSERT_EQ(got.fired, want.fired) << "stage " << stage;
    ASSERT_EQ(sim.now(), ref_now);
    ASSERT_EQ(sim.pending_events(), ref.size());
  }
  sim.run();
  ref_run_until(std::numeric_limits<SimTime>::max());
  EXPECT_EQ(got.fired, want.fired);
  EXPECT_TRUE(sim.empty());
  EXPECT_GT(got.next_id, kMaxEvents);

  // The run did exercise the split: equal timestamps from both heaps. (At
  // equal `when` the far entry was always scheduled first, so it must fire
  // first.)
  int far_then_near = 0;
  for (std::size_t i = 1; i < got.fired.size(); ++i) {
    const Fired& a = got.fired[i - 1];
    const Fired& b = got.fired[i];
    if (a.at != b.at) continue;
    const bool a_far = got.far[static_cast<std::size_t>(a.id)];
    const bool b_far = got.far[static_cast<std::size_t>(b.id)];
    EXPECT_FALSE(!a_far && b_far) << "near event " << a.id
                                  << " fired before far event " << b.id;
    far_then_near += a_far && !b_far;
  }
  EXPECT_GT(far_then_near, 0);
}

TEST(Callback, MovesRelocateMoveOnlyCapturesWithoutCopying) {
  int copies = 0;
  int live = 0;
  auto owned = std::make_unique<int>(41);
  Callback<int(int)> a = [p = std::move(owned), c = CopyCounter(&copies),
                          l = LiveCounter(&live)](int x) { return *p + x; };
  Callback<int(int)> b = std::move(a);
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(b(1), 42);
  a = std::move(b);
  EXPECT_EQ(a(2), 43);
  EXPECT_EQ(copies, 0);
  EXPECT_EQ(live, 1);
  a.reset();
  EXPECT_EQ(live, 0);
}

TEST(Callback, OversizeClosuresAreBoxedAndDestroyedOnce) {
  int live = 0;
  std::array<char, 256> pad{};
  pad[255] = 'z';
  {
    Callback<char()> a = [pad, l = LiveCounter(&live)] { return pad[255]; };
    EXPECT_EQ(live, 1);
    Callback<char()> b = std::move(a);  // moves the box, not the closure
    EXPECT_EQ(live, 1);
    EXPECT_EQ(b(), 'z');
  }
  EXPECT_EQ(live, 0);
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

TEST(QueueingServer, CompletionsCanSubmitToTheirOwnStation) {
  // Each completion submits two more jobs to the same station while it runs
  // in its cell, growing the station's cells past one chunk.
  Simulation sim;
  QueueingServer server(sim, "s", 4);
  constexpr int kJobs = 2000;
  int submitted = 0;
  std::vector<int> done_ids;
  std::function<void(int)> submit = [&](int id) {
    ++submitted;
    server.submit(10, [&, id, key = "job-" + std::to_string(id) +
                                    "-beyond-the-small-string-buffer"] {
      EXPECT_EQ(key, "job-" + std::to_string(id) +
                         "-beyond-the-small-string-buffer");
      done_ids.push_back(id);
      for (int k = 0; k < 2 && submitted < kJobs; ++k) submit(submitted);
    });
  };
  submit(0);
  sim.run();
  ASSERT_EQ(done_ids.size(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(server.completions(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(server.in_service(), 0);
  // FIFO service with equal service times: completions in submission order.
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(done_ids[static_cast<std::size_t>(i)], i);
  }
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

// The station as the parent design ran it: one std::priority_queue on
// (when, seq) for every event and a FIFO deque of waiting jobs; a job's
// completion ends its service (dequeuing and starting the next waiting job)
// and then runs the job.
class ReferenceStation {
 public:
  explicit ReferenceStation(int concurrency) : concurrency_(concurrency) {}

  SimTime now() const { return now_; }
  void schedule_at(SimTime when, std::function<void()> f) {
    events_.push(Event{when, next_seq_++, std::move(f)});
  }
  void run() {
    while (!events_.empty()) {
      Event e = events_.top();
      events_.pop();
      now_ = e.when;
      e.f();
    }
  }

  void submit(SimTime service_time, std::function<void()> done) {
    ++arrivals;
    if (in_service_ < concurrency_) {
      start(service_time, std::move(done));
    } else {
      queue_.push_back(Waiting{service_time, now_, std::move(done)});
      max_queue_depth = std::max(max_queue_depth, queue_.size());
    }
  }

  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  SimTime busy_time = 0;
  SimTime wait_time = 0;
  std::size_t max_queue_depth = 0;

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> f;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  struct Waiting {
    SimTime service_time;
    SimTime enqueued_at;
    std::function<void()> done;
  };

  void start(SimTime service_time, std::function<void()> done) {
    ++in_service_;
    busy_time += service_time;
    schedule_at(now_ + service_time, [this, done = std::move(done)] {
      --in_service_;
      ++completions;
      if (!queue_.empty()) {
        Waiting next = std::move(queue_.front());
        queue_.pop_front();
        wait_time += now_ - next.enqueued_at;
        start(next.service_time, std::move(next.done));
      }
      done();
    });
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  int concurrency_;
  int in_service_ = 0;
  std::deque<Waiting> queue_;
};

TEST(QueueingServer, CompletesInTheOrderOfAReferenceStation) {
  // Arrivals and service times on a 10-unit grid, so completions tie, in
  // stretches that alternately saturate the station and leave it idle. Some
  // completions submit a follow-up job to their own station, some schedule a
  // plain event, and every third job's closure is too large for a small
  // cell.
  constexpr SimTime kGrid = 10;
  constexpr int kArrivals = 3000;
  constexpr int kFollowUp = 1'000'000;  // id offset of follow-up jobs
  constexpr int kMarker = 2 * kFollowUp;  // id offset of plain events
  struct Completion {
    int id;
    SimTime at;
    bool operator==(const Completion&) const = default;
  };
  const auto service_of = [](int id) {
    return kGrid * static_cast<SimTime>(
                       1 + hash_combine(static_cast<std::uint64_t>(id), 7) % 6);
  };

  for (int concurrency = 1; concurrency <= 4; ++concurrency) {
    SCOPED_TRACE(concurrency);
    Rng rng(0xc0ffee + static_cast<std::uint64_t>(concurrency));
    std::vector<SimTime> arrival_at;
    SimTime t = 0;
    for (int id = 0; id < kArrivals; ++id) {
      const bool saturate = (id / 200) % 2 == 0;
      t += kGrid * (saturate ? rng.next_int(0, 1) : rng.next_int(3, 12));
      arrival_at.push_back(t);
    }

    // Runs the same script on either side; `clock` schedules and runs the
    // events. Also returns each job's submission time.
    const auto drive = [&](auto& station, auto& clock) {
      std::vector<Completion> log;
      std::map<int, SimTime> submitted;
      std::function<void(int)> submit = [&](int id) {
        submitted[id] = clock.now();
        const auto record = [&, id] {
          log.push_back({id, clock.now()});
          if (id < kFollowUp && id % 7 == 3) submit(id + kFollowUp);
          if (id % 5 == 1) {  // an event that may tie a dequeued job's end
            clock.schedule_at(clock.now() + service_of(id), [&, id] {
              log.push_back({kMarker + id, clock.now()});
            });
          }
        };
        if (id % 3 == 0) {
          std::array<char, 64> pad{};
          pad[63] = static_cast<char>(id);
          station.submit(service_of(id), [record, pad, id] {
            EXPECT_EQ(pad[63], static_cast<char>(id));
            record();
          });
        } else {
          station.submit(service_of(id), record);
        }
      };
      for (int id = 0; id < kArrivals; ++id) {
        clock.schedule_at(arrival_at[static_cast<std::size_t>(id)],
                          [&submit, id] { submit(id); });
      }
      clock.run();
      return std::pair(log, submitted);
    };

    Simulation sim;
    QueueingServer server(sim, "s", concurrency);
    const auto [got, got_submitted] = drive(server, sim);
    ReferenceStation ref(concurrency);
    const auto [want, want_submitted] = drive(ref, ref);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "completion " << i;
    }
    EXPECT_EQ(server.arrivals(), ref.arrivals);
    EXPECT_EQ(server.completions(), ref.completions);
    EXPECT_EQ(server.total_busy_time(), ref.busy_time);
    EXPECT_EQ(server.total_wait_time(), ref.wait_time);
    EXPECT_EQ(server.max_queue_depth(), ref.max_queue_depth);
    EXPECT_EQ(server.in_service(), 0);

    // The script reaches the case it is for: at some instant a job that
    // started at once and one that had waited both complete (which takes
    // two slots).
    std::map<SimTime, std::pair<bool, bool>> kinds;  // {started at once, waited}
    for (const Completion& c : want) {
      if (c.id >= kMarker) continue;
      const bool waited =
          c.at - want_submitted.at(c.id) > service_of(c.id);
      (waited ? kinds[c.at].second : kinds[c.at].first) = true;
    }
    const auto mixed = std::count_if(kinds.begin(), kinds.end(),
                                     [](const auto& k) {
                                       return k.second.first && k.second.second;
                                     });
    EXPECT_EQ(mixed > 0, concurrency > 1);
    EXPECT_GT(ref.max_queue_depth, 2u);
  }
}

}  // namespace
}  // namespace proteus::sim
