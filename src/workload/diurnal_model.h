// Diurnal request-rate model calibrated to the paper's Wikipedia trace
// description: strong day/night periodicity with the peak about twice the
// valley (§I cites peak ≈ 2x valley; Fig. 4 shows the measured curve).
//
// rate(t) = mean * (1 + amplitude * sin(2*pi*(t - phase)/period))
//           * (1 + deterministic per-slot jitter)
//
// The jitter is a seeded hash of the slot index, so the same seed always
// regenerates the same trace — every figure is reproducible bit-for-bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/check.h"
#include "common/hash.h"
#include "common/time.h"

namespace proteus::workload {

struct DiurnalConfig {
  double mean_rate = 600.0;       // requests/second averaged over a day
  double amplitude = 0.34;        // (peak-valley)/(peak+valley); 1/3 -> 2:1 ratio
  SimTime period = 24 * kHour;    // diurnal cycle
  SimTime phase = 9 * kHour;      // rate peaks mid-window like the trace
  double jitter = 0.05;           // +-5% deterministic hourly noise
  SimTime jitter_slot = kHour;
  std::uint64_t seed = 7;
};

class DiurnalModel {
 public:
  explicit DiurnalModel(DiurnalConfig config) : config_(config) {
    PROTEUS_CHECK(config_.mean_rate > 0);
    PROTEUS_CHECK(config_.amplitude >= 0 && config_.amplitude < 1);
    PROTEUS_CHECK(config_.period > 0);
  }

  double rate_at(SimTime t) const noexcept {
    const double x = 2.0 * std::numbers::pi *
                     static_cast<double>(t - config_.phase) /
                     static_cast<double>(config_.period);
    double u = 0;
    if (config_.jitter > 0) {
      const auto slot = static_cast<std::uint64_t>(t / config_.jitter_slot);
      u = static_cast<double>(hash_u64(slot, config_.seed) >> 11) * 0x1.0p-53;
    }
    return rate(std::sin(x), u);
  }

  // The least rate_at can return: its own arithmetic at sin = -1 and u = 0.
  // While jitter <= 1 (no rate is negative) every factor is nonnegative and
  // each operation monotonic in sin and u, so rounding keeps
  // min_rate() <= rate_at(t) for every t.
  double min_rate() const noexcept { return rate(-1.0, 0.0); }

  double peak_rate() const noexcept {
    return config_.mean_rate * (1.0 + config_.amplitude) * (1.0 + config_.jitter);
  }
  double valley_rate() const noexcept {
    return config_.mean_rate * (1.0 - config_.amplitude) * (1.0 - config_.jitter);
  }

  const DiurnalConfig& config() const noexcept { return config_; }

 private:
  // rate_at for a sine value `s` and a jitter draw `u` in [0, 1).
  double rate(double s, double u) const noexcept {
    double r = config_.mean_rate * (1.0 + config_.amplitude * s);
    if (config_.jitter > 0) r *= 1.0 + config_.jitter * (2.0 * u - 1.0);
    return r;
  }

  DiurnalConfig config_;
};

}  // namespace proteus::workload
