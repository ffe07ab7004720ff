#include "workload/rbe.h"

#include <algorithm>

#include "common/check.h"

namespace proteus::workload {

RbeCluster::RbeCluster(sim::Simulation& sim, RbeConfig config,
                       DiurnalModel model, IssueFn issue)
    : sim_(sim),
      config_(config),
      model_(model),
      issue_(std::move(issue)),
      rng_(config.seed),
      zipf_(config.num_pages, config.zipf_alpha),
      retire_floor_(population(model_.min_rate())) {
  PROTEUS_CHECK(issue_ != nullptr);
  PROTEUS_CHECK(config_.think_time_sec > 0);
  PROTEUS_CHECK(config_.pages_per_user > 0);
}

void RbeCluster::start(SimTime horizon) {
  PROTEUS_CHECK(horizon > sim_.now());
  horizon_ = horizon;
  control_tick();
}

std::size_t RbeCluster::population(double rate) const {
  const double target = rate * config_.think_time_sec;
  return static_cast<std::size_t>(std::max(1.0, std::round(target)));
}

void RbeCluster::begin_session(User& user, SimTime now) {
  ++sessions_started_;
  user.rng = rng_.fork(next_user_stream_++);
  user.pages.clear();
  user.pages.reserve(config_.pages_per_user);
  for (std::size_t p = 0; p < config_.pages_per_user; ++p) {
    user.pages.push_back(static_cast<std::uint32_t>(zipf_(user.rng)));
  }
  user.session_end =
      config_.mean_session_sec > 0
          ? now + from_seconds(
                      user.rng.next_exponential(config_.mean_session_sec))
          : 0;
}

RbeCluster::User& RbeCluster::materialize_user(std::size_t index) {
  if (index >= users_.size()) users_.resize(index + 1);
  if (!users_[index]) {
    users_[index] = std::make_unique<User>();
    begin_session(*users_[index], sim_.now());
  }
  return *users_[index];
}

void RbeCluster::control_tick() {
  if (sim_.now() >= horizon_) return;

  const std::size_t target = target_population(sim_.now());
  // Spawn any missing users with index < target. Users with index >= target
  // notice at the start of their next cycle and retire (session end).
  for (std::size_t i = 0; i < target; ++i) {
    User& user = materialize_user(i);
    if (!user.alive) {
      user.alive = true;
      ++live_users_;
      // Desynchronize new arrivals across the think window.
      const SimTime jitter =
          from_seconds(user.rng.next_double() * config_.think_time_sec);
      sim_.schedule_after(jitter, [this, i] { user_cycle(i); });
    }
  }

  sim_.schedule_after(config_.control_interval, [this] { control_tick(); });
}

void RbeCluster::user_cycle(std::size_t user_index) {
  User& user = *users_[user_index];
  const SimTime now = sim_.now();
  if (now >= horizon_ ||
      (user_index >= retire_floor_ && user_index >= target_population(now))) {
    user.alive = false;
    --live_users_;
    return;
  }
  if (user.session_end != 0 && now >= user.session_end) {
    // Session over (§V-1, exponential duration): a fresh independent user
    // with a new page set takes the slot.
    begin_session(user, now);
  }

  const std::uint32_t page =
      user.pages[user.rng.next_below(user.pages.size())];
  const SimTime issued_at = now;
  issue_(page_key(page), [this, user_index, issued_at] {
    const SimTime completion = sim_.now();
    record_latency(completion, completion - issued_at);
    ++completed_;
    // Think, then request again.
    sim_.schedule_after(from_seconds(config_.think_time_sec),
                        [this, user_index] { user_cycle(user_index); });
  });
}

void RbeCluster::record_latency(SimTime completion, SimTime latency) {
  const auto slot = static_cast<std::size_t>(completion / config_.metric_slot);
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  slots_[slot].record(static_cast<double>(latency));
}

LatencyHistogram RbeCluster::overall_histogram() const {
  LatencyHistogram all;
  for (const auto& h : slots_) all.merge(h);
  return all;
}

}  // namespace proteus::workload
