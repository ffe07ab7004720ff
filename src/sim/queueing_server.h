// A queueing station: `concurrency` parallel service slots plus an unbounded
// FIFO queue. Models both database shards (few slots, long seek-dominated
// service times — the component whose overload produces the Fig. 9 delay
// spikes) and web/cache servers (many slots, short service times).
//
// A job that finds a slot free is built inside its completion event; only a
// job that has to wait takes one of the station's own cells. A completion
// frees the slot (starting the next waiting job), then runs the job.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "common/check.h"
#include "sim/callback.h"
#include "sim/simulation.h"

namespace proteus::sim {

class QueueingServer {
 public:
  QueueingServer(Simulation& sim, std::string name, int concurrency)
      : sim_(sim), name_(std::move(name)), concurrency_(concurrency) {
    PROTEUS_CHECK(concurrency_ > 0);
  }
  // Pending completion events point at this station.
  QueueingServer(const QueueingServer&) = delete;
  QueueingServer& operator=(const QueueingServer&) = delete;

  // Enqueue a job needing `service_time`; `done` fires when service ends.
  template <class F>
  void submit(SimTime service_time, F&& done) {
    PROTEUS_CHECK(service_time >= 0);
    ++arrivals_;
    if (in_service_ < concurrency_) {
      start(service_time, std::forward<F>(done));
    } else {
      queue_.push_back(Waiting{service_time, sim_.now(),
                               jobs_.emplace(std::forward<F>(done))});
      max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
    }
  }

  // --- instrumentation ---------------------------------------------------
  std::size_t queue_depth() const noexcept { return queue_.size(); }
  std::size_t max_queue_depth() const noexcept { return max_queue_depth_; }
  int in_service() const noexcept { return in_service_; }
  std::uint64_t arrivals() const noexcept { return arrivals_; }
  std::uint64_t completions() const noexcept { return completions_; }
  SimTime total_busy_time() const noexcept { return busy_time_; }
  SimTime total_wait_time() const noexcept { return wait_time_; }
  const std::string& name() const noexcept { return name_; }

  // Utilisation over [0, now]: busy slot-time / (slots * elapsed).
  double utilization() const noexcept {
    const SimTime elapsed = sim_.now();
    if (elapsed <= 0) return 0.0;
    return static_cast<double>(busy_time_) /
           (static_cast<double>(concurrency_) * static_cast<double>(elapsed));
  }

 private:
  struct Waiting {
    SimTime service_time;
    SimTime enqueued_at;
    CallbackCells::Handle job;  // the job's callable in jobs_
  };

  template <class F>
  void start(SimTime service_time, F&& done) {
    ++in_service_;
    busy_time_ += service_time;
    sim_.schedule_after(service_time,
                        [this, done = std::forward<F>(done)]() mutable {
                          finish();
                          done();
                        });
  }

  // Frees the slot, and hands it to the first waiting job, if any.
  void finish() {
    --in_service_;
    ++completions_;
    if (!queue_.empty()) {
      const Waiting next = queue_.front();
      queue_.pop_front();
      wait_time_ += sim_.now() - next.enqueued_at;
      start(next.service_time, [this, job = next.job] { jobs_.run(job); });
    }
  }

  Simulation& sim_;
  std::string name_;
  int concurrency_;
  int in_service_ = 0;
  CallbackCells jobs_;  // callables of waiting jobs, and of those dequeued
  std::deque<Waiting> queue_;
  std::size_t max_queue_depth_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t completions_ = 0;
  SimTime busy_time_ = 0;
  SimTime wait_time_ = 0;
};

}  // namespace proteus::sim
