// Live power-proportionality auditor — continuous energy accounting and
// model-drift detection for a running fleet.
//
// The simulator integrates energy offline (cluster::EnergyMeter feeding the
// Fig. 10/11 plots); this module is the live analogue. Components with a
// fleet view (the Proteus facade, ProteusClient, WebTier, or a daemon
// auditing itself) feed cumulative per-server counters into observe(); the
// auditor turns them into
//
//   * an EnergyAccount — §V-A analytic watts integrated over observed load
//     into cumulative joules/kWh, per server and fleet-wide;
//   * a rolling power-proportionality index (PPI) — actual energy divided
//     by the energy an ideally load-proportional fleet (P = load_fraction
//     x fleet peak) would have drawn over the same interval. 1.0 is ideal;
//     the gap to it is exactly what Fig. 10's Static-vs-Proteus curves
//     show, measured online;
//   * model-drift gauges — each completed window the paper's analytic
//     predictions are evaluated against observed counters: Theorem 1's K/n
//     key-space share per active server, Eq. 5's Bloom-digest
//     false-negative bound, and the expected hit ratio (closed-form
//     LRU-miss-ratio style predictions, cf. Ji et al.). A drift beyond
//     tolerance emits a kModelDrift event into the TraceRing so the
//     timeline shows WHEN the machine and the model diverged.
//
// Thread safety: observe()/snapshot() lock an internal mutex, so a feeding
// thread (e.g. the daemon's metrics sampler) can roll windows while another
// thread reads gauges. The auditor is OFF the request hot path by design —
// callers feed it from tick()/sampler-tick points, never per request
// (bench/micro_audit gates the disabled cost).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/power_model.h"
#include "common/time.h"
#include "obs/trace.h"

namespace proteus::obs {

class MetricsRegistry;

struct AuditConfig {
  cluster::ServerPowerProfile power;    // §V-A analytic server model
  double peak_ops_per_server = 50000.0; // gets/s that saturates one server
  SimTime window = 15 * kSecond;        // drift/PPI roll-up cadence
  // Model-drift tolerances (fractional; a completed window whose |drift|
  // exceeds the tolerance emits one kModelDrift trace event).
  double share_tolerance = 0.25;      // |observed_share x n_active - 1|
  double hit_ratio_tolerance = 0.10;  // |observed - expected|
  // Eq. 5 analytic false-negative bound for the fleet's digest geometry
  // (bloom::false_negative_bound); 0 disables the check. Drift is
  // observed_rate - bound: positive means the bound is VIOLATED.
  double fn_bound = 0;
  // Expected hit ratio; 0 learns the long-run observed mean instead, so
  // drift then flags departures from the fleet's own steady state.
  double expected_hit_ratio = 0;
  // Sink for kModelDrift events (null = gauges only).
  TraceSink* trace = nullptr;
};

// One server's cumulative counters at an observation instant.
struct ServerAuditSample {
  int power_state = 0;    // 0 active, 1 draining, 2 off/unreachable
  double gets_total = 0;  // cumulative gets routed to this server
  double hits_total = 0;  // cumulative hits it answered
};

// Everything the gauges/renderers need, materialized under one lock.
struct AuditSnapshot {
  double fleet_joules = 0;       // integrated actual energy
  double ideal_joules = 0;       // integrated load-proportional energy
  double ppi = 0;                // fleet_joules / ideal_joules (0 until load)
  double window_ppi = 0;         // last completed window's ratio
  double fleet_watts = 0;        // last interval's mean draw
  double load_fraction = 0;      // last interval's load / fleet peak load
  double share_drift = 0;        // worst signed K/n drift, last window
  double hit_ratio_drift = 0;    // observed - expected, last window
  double fn_drift = 0;           // observed FN rate - Eq. 5 bound, last window
  double observed_hit_ratio = 0; // last window
  std::uint64_t windows = 0;       // completed roll-up windows
  std::uint64_t drift_events = 0;  // kModelDrift events emitted
  std::vector<double> server_joules;
};

class PowerAuditor {
 public:
  explicit PowerAuditor(AuditConfig config);

  const AuditConfig& config() const noexcept { return config_; }

  // Integrates energy over [previous observe, now] from the counter deltas
  // and rolls the drift window when due. `fleet` must keep a stable size
  // and order across calls (index = provisioning order). `fn_total` /
  // `fn_opportunities` are cumulative observed digest false negatives and
  // the lookups that could have produced them (0/0 = digest check off).
  void observe(SimTime now, const std::vector<ServerAuditSample>& fleet,
               double fn_total = 0, double fn_opportunities = 0);

  AuditSnapshot snapshot() const;

  // PPI, joules, watts, and drift gauges (prefix proteus_audit_).
  void register_metrics(MetricsRegistry& registry);

  void clear();

 private:
  // Window bookkeeping (all guarded by mu_).
  struct WindowStart {
    SimTime t = 0;
    double joules = 0;
    double ideal_joules = 0;
    double fn_total = 0;
    double fn_opportunities = 0;
    std::vector<double> gets;
    std::vector<double> hits;
  };

  void roll_window(SimTime now, const std::vector<ServerAuditSample>& fleet,
                   double fn_total, double fn_opportunities);
  void drift_event(SimTime now, std::string_view which, double drift);

  AuditConfig config_;
  mutable std::mutex mu_;
  bool have_prev_ = false;
  SimTime prev_t_ = 0;
  std::vector<ServerAuditSample> prev_;
  WindowStart window_;
  bool have_window_ = false;

  // Integrated state.
  std::vector<double> server_joules_;
  double fleet_joules_ = 0;
  double ideal_joules_ = 0;
  double fleet_watts_ = 0;
  double load_fraction_ = 0;
  // Last completed window.
  double window_ppi_ = 0;
  double share_drift_ = 0;
  double hit_ratio_drift_ = 0;
  double fn_drift_ = 0;
  double observed_hit_ratio_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t drift_events_ = 0;
  // Long-run hit-ratio mean (when expected_hit_ratio is unset).
  double lifetime_gets_ = 0;
  double lifetime_hits_ = 0;
};

}  // namespace proteus::obs
