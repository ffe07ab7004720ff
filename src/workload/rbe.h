// Remote Browser Emulator — the closed-loop user model of §V-1 / §VI-C.
//
// Simulates a dynamic population of independent users. Each user owns a
// private page set (50 pages, drawn from the global Zipf popularity), and
// loops: think 0.5 s -> request a uniformly chosen page from the set ->
// wait for the response -> think again. The active population tracks the
// diurnal model: target_users(t) = rate(t) * think_time, adjusted every
// control interval, with users retiring at the end of their current cycle.
// Response latency is recorded into per-slot histograms at completion time
// (the paper groups the run into 480 slots and plots p99.9 per slot).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/callback.h"
#include "sim/simulation.h"
#include "workload/diurnal_model.h"
#include "workload/trace.h"

namespace proteus::workload {

struct RbeConfig {
  double think_time_sec = 0.5;
  std::size_t pages_per_user = 50;
  std::size_t num_pages = 200'000;
  double zipf_alpha = 0.9;
  // Mean of the exponential session duration (§V-1). When a session ends,
  // a fresh independent user (new page set) takes the slot, churning the
  // working set. 0 disables churn (users live for the whole run).
  double mean_session_sec = 0;
  SimTime control_interval = 5 * kSecond;
  SimTime metric_slot = 30 * kMinute;  // latency histogram granularity
  std::uint64_t seed = 99;
};

class RbeCluster {
 public:
  // `issue` delivers one request into the serving system; it must invoke the
  // completion callback exactly once, after which the user thinks again.
  using Done = sim::Callback<void()>;
  using IssueFn = std::function<void(const std::string& key, Done done)>;

  RbeCluster(sim::Simulation& sim, RbeConfig config, DiurnalModel model,
             IssueFn issue);

  // Arms the population controller; users run until `horizon`.
  void start(SimTime horizon);

  // The population the diurnal model asks for at `t`: round(rate * think),
  // at least 1. Users with an index at or above it retire.
  std::size_t target_population(SimTime t) const {
    return population(model_.rate_at(t));
  }
  // The least target_population can return over all time (1 when the
  // model's jitter exceeds 1 and its least rate is negative). A user below
  // it never retires, so its cycle skips the model's sin and hash.
  std::size_t retire_floor() const noexcept { return retire_floor_; }

  std::size_t live_users() const noexcept { return live_users_; }
  std::uint64_t completed_requests() const noexcept { return completed_; }
  std::uint64_t sessions_started() const noexcept { return sessions_started_; }

  // Per-slot latency histograms (slot = completion_time / metric_slot).
  const std::vector<LatencyHistogram>& slot_histograms() const noexcept {
    return slots_;
  }
  LatencyHistogram overall_histogram() const;

 private:
  struct User {
    std::vector<std::uint32_t> pages;
    Rng rng;
    bool alive = false;
    SimTime session_end = 0;  // 0 = unbounded session
  };

  void control_tick();
  void user_cycle(std::size_t user_index);
  void record_latency(SimTime completion, SimTime latency);
  std::size_t population(double rate) const;
  User& materialize_user(std::size_t index);
  void begin_session(User& user, SimTime now);

  sim::Simulation& sim_;
  RbeConfig config_;
  DiurnalModel model_;
  IssueFn issue_;
  Rng rng_;
  ZipfSampler zipf_;
  std::size_t retire_floor_;
  SimTime horizon_ = 0;
  std::vector<std::unique_ptr<User>> users_;
  std::size_t live_users_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t next_user_stream_ = 0;  // fresh RNG stream per session
  std::vector<LatencyHistogram> slots_;
};

}  // namespace proteus::workload
