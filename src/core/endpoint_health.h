// Per-endpoint health gating: a phi-accrual-style EWMA latency/error
// detector (EndpointHealth) with a healthy/suspect/quarantined/probation
// state machine, decorrelated-jitter retry scheduling (DecorrelatedJitter)
// and a hedged-request token budget (HedgeBudget).
//
// Deterministic on purpose: time is the caller's SimTime (simulated or a
// monotonic wall clock) and jitter comes from the seeded common/rng.h
// generator, so failure-path tests replay exactly. Used by the live
// ProteusClient (src/client) to decide when a cache server is worth another
// connection attempt, and by the in-process Proteus facade to gate routing
// around crashed servers; reusable by anything that talks to flaky peers.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/rng.h"
#include "common/time.h"

namespace proteus::core {

// Decorrelated jitter (the AWS "decorrelated" variant): each delay is drawn
// uniformly from [base, 3 * previous], capped. Successive draws wander the
// whole range instead of clustering at 2^k * base, so a fleet of clients
// that quarantined the same endpoint in the same millisecond spreads its
// re-probe traffic instead of producing a synchronized retry storm.
class DecorrelatedJitter {
 public:
  DecorrelatedJitter() = default;
  DecorrelatedJitter(SimTime base, SimTime cap) noexcept
      : base_(base), cap_(cap), prev_(base) {
    PROTEUS_CHECK(base > 0 && cap >= base);
  }

  SimTime next(Rng& rng) noexcept {
    const SimTime hi = std::min(cap_, 3 * prev_);
    const SimTime lo = std::min(base_, hi);
    prev_ = lo + static_cast<SimTime>(rng.next_below(
                     static_cast<std::uint64_t>(hi - lo + 1)));
    return prev_;
  }

  void reset() noexcept { prev_ = base_; }
  SimTime base() const noexcept { return base_; }
  SimTime cap() const noexcept { return cap_; }

 private:
  SimTime base_ = 100 * kMillisecond;
  SimTime cap_ = 5 * kSecond;
  SimTime prev_ = 100 * kMillisecond;
};

// Token bucket bounding hedged (duplicated) requests to a fraction of real
// traffic. Every issued request deposits `rate` tokens (default 0.05 =
// hedges may add at most 5% extra load); firing a hedge spends one token.
// Clock-free: the budget follows offered load exactly, so hedging can never
// become the overload source the admission layer defends against.
class HedgeBudget {
 public:
  // The live client's budget: at most 5% extra GETs, bursts of 8.
  static constexpr double kDefaultRate = 0.05;
  static constexpr double kDefaultBurst = 8.0;

  HedgeBudget() = default;
  HedgeBudget(double rate, double burst) noexcept : rate_(rate), burst_(burst) {
    PROTEUS_CHECK(rate >= 0.0 && burst >= 1.0);
  }

  void on_request() noexcept { tokens_ = std::min(burst_, tokens_ + rate_); }

  bool try_acquire() noexcept {
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const noexcept { return tokens_; }
  double rate() const noexcept { return rate_; }

 private:
  double rate_ = kDefaultRate;
  double burst_ = kDefaultBurst;
  double tokens_ = 1.0;  // allow one early hedge, then pay as you go
};

// Phi-accrual-style endpoint health detector (Hayashibara et al., adapted
// from heartbeat gaps to request latencies). Tracks an EWMA mean/deviation
// latency baseline per endpoint; every outcome becomes a suspicion sample:
// successes contribute phi = -log10(P(latency >= observed)) under the
// baseline (0 when on-baseline, large when the endpoint turns
// slow-but-alive), hard errors contribute the cap. Suspicion is an EWMA of
// those samples, so gray failure accrues continuously instead of tripping a
// binary on/off switch.
//
// State machine: healthy -> suspect (suspicion >= phi_suspect) ->
// quarantined (suspicion >= phi_quarantine, or `error_threshold`
// consecutive hard errors — the fail-stop fast path) -> probation (first
// admission after a decorrelated-jitter dwell; `probation_successes` clean
// responses re-admit, any error re-quarantines with a longer dwell). Dwells
// grow across consecutive quarantines and reset only after the endpoint
// stays out of quarantine for `flap_window` (flap damping), but re-probing
// is always scheduled: an endpoint is never blacklisted permanently.
class EndpointHealth {
 public:
  enum class State { kHealthy, kSuspect, kQuarantined, kProbation };

  struct Policy {
    // Latency baseline and accrual.
    // EWMA gain for mean/dev after warmup. Deliberately much slower than
    // suspicion_gain: the baseline must not absorb a latency regime shift
    // before suspicion has had time to accrue to the quarantine threshold
    // (a fast baseline turns the detector blind to slow-but-alive).
    double latency_gain = 0.02;
    int warmup_samples = 8;       // latency samples before phi is trusted
    double min_deviation_usec = 5000.0;  // dev floor: ignore scheduler jitter
    double phi_suspect = 2.0;     // suspicion >= this -> suspect
    double phi_quarantine = 6.0;  // suspicion >= this -> quarantined
    double phi_cap = 12.0;        // per-sample cap; hard errors score this
    double suspicion_gain = 0.25;  // EWMA gain folding samples into suspicion
    // Fail-stop fast path.
    int error_threshold = 3;  // consecutive hard errors -> quarantined
    // Re-admission.
    int probation_successes = 3;  // clean responses that close probation
    SimTime quarantine_base = 500 * kMillisecond;  // first dwell (jitter base)
    SimTime quarantine_cap = 10 * kSecond;         // dwell cap
    SimTime flap_window = 30 * kSecond;  // healthy this long resets dwells
    // Hedging.
    double hedge_deviations = 3.0;  // hedge delay = mean + k * dev
    SimTime hedge_delay_floor = 1 * kMillisecond;
    SimTime hedge_delay_cap = 100 * kMillisecond;
  };

  EndpointHealth() : EndpointHealth(Policy{}) {}
  explicit EndpointHealth(Policy policy)
      : policy_(policy),
        probe_jitter_(policy.quarantine_base, policy.quarantine_cap) {
    PROTEUS_CHECK(policy_.error_threshold >= 1);
    PROTEUS_CHECK(policy_.probation_successes >= 1);
    PROTEUS_CHECK(policy_.warmup_samples >= 1);
    // hedge_delay() clamps into [floor, cap], undefined for floor > cap.
    PROTEUS_CHECK(policy_.hedge_delay_floor <= policy_.hedge_delay_cap);
  }

  // May the caller route a request to this endpoint now? Quarantined
  // endpoints admit exactly one caller once the probe time arrives; that
  // admission moves them to probation (all traffic admitted while the
  // endpoint proves itself).
  bool allow(SimTime now) noexcept {
    if (state_ == State::kQuarantined) {
      if (now < probe_at_) return false;
      enter(State::kProbation);
      probation_left_ = policy_.probation_successes;
    }
    return true;
  }

  // A clean response in `latency` microseconds.
  void record_success(SimTime now, SimTime latency, Rng& rng) noexcept {
    consecutive_errors_ = 0;
    observe_phi(phi_of_latency(latency));
    observe_latency(latency);
    if (state_ == State::kProbation) {
      if (--probation_left_ <= 0) {
        enter(State::kHealthy);
        suspicion_ = 0.0;
        quarantined_until_recently_ = now + policy_.flap_window;
      }
      return;
    }
    if (state_ == State::kQuarantined) return;  // background probe succeeded
    update_gray_state(now, rng);
  }

  // A hard error (refused / reset / timeout). Overload pushback and fencing
  // refusals are the endpoint doing its job — callers must not report those
  // here.
  void record_failure(SimTime now, Rng& rng) noexcept {
    ++consecutive_errors_;
    observe_phi(policy_.phi_cap);
    if (state_ == State::kProbation ||
        consecutive_errors_ >= policy_.error_threshold ||
        (warmed_up() && suspicion_ >= policy_.phi_quarantine)) {
      quarantine(now, rng);
    } else if (warmed_up() && suspicion_ >= policy_.phi_suspect &&
               state_ == State::kHealthy) {
      enter(State::kSuspect);
    }
  }

  // Adaptive hedge trigger: fire a backup request once the primary has been
  // outstanding longer than baseline-mean + k deviations (a cheap p95+
  // proxy). Before warmup the cap disables hedging in practice.
  SimTime hedge_delay() const noexcept {
    if (!warmed_up()) return policy_.hedge_delay_cap;
    const double dev = std::max(dev_usec_, policy_.min_deviation_usec);
    const double d = mean_usec_ + policy_.hedge_deviations * dev;
    return std::clamp(static_cast<SimTime>(d), policy_.hedge_delay_floor,
                      policy_.hedge_delay_cap);
  }

  State state() const noexcept { return state_; }
  double suspicion() const noexcept { return suspicion_; }
  bool warmed_up() const noexcept { return samples_ >= policy_.warmup_samples; }
  SimTime probe_at() const noexcept { return probe_at_; }
  int consecutive_errors() const noexcept { return consecutive_errors_; }

  // Lifetime transition counters (monotonic; exported as metrics).
  std::uint64_t quarantine_enters() const noexcept { return enters_; }
  std::uint64_t quarantine_exits() const noexcept { return exits_; }

 private:
  void enter(State next) noexcept {
    if (state_ == next) return;
    if (state_ == State::kQuarantined) ++exits_;
    if (next == State::kQuarantined) ++enters_;
    state_ = next;
  }

  void quarantine(SimTime now, Rng& rng) noexcept {
    // Flap damping: dwells keep growing while the endpoint keeps bouncing;
    // only a sustained healthy stretch resets the jitter schedule.
    if (now >= quarantined_until_recently_) probe_jitter_.reset();
    quarantined_until_recently_ = now + policy_.flap_window;
    enter(State::kQuarantined);
    probe_at_ = now + probe_jitter_.next(rng);
    suspicion_ = std::max(suspicion_, policy_.phi_quarantine);
  }

  void observe_latency(SimTime latency) noexcept {
    const double x = static_cast<double>(latency);
    if (samples_ < policy_.warmup_samples) {
      // Warmup: plain running mean / mean absolute deviation.
      ++samples_;
      const double d = x - mean_usec_;
      mean_usec_ += d / static_cast<double>(samples_);
      dev_usec_ += (std::fabs(d) - dev_usec_) / static_cast<double>(samples_);
      return;
    }
    const double d = x - mean_usec_;
    mean_usec_ += policy_.latency_gain * d;
    dev_usec_ += policy_.latency_gain * (std::fabs(d) - dev_usec_);
  }

  double phi_of_latency(SimTime latency) const noexcept {
    if (!warmed_up()) return 0.0;
    const double dev = std::max(dev_usec_, policy_.min_deviation_usec);
    const double z = (static_cast<double>(latency) - mean_usec_) / dev;
    if (z <= 0.0) return 0.0;
    // phi = -log10 P(X >= latency) for a normal baseline.
    const double p = 0.5 * std::erfc(z / 1.4142135623730951);
    const double phi = p > 0.0 ? -std::log10(p) : policy_.phi_cap;
    return std::min(phi, policy_.phi_cap);
  }

  void observe_phi(double phi) noexcept {
    suspicion_ += policy_.suspicion_gain * (phi - suspicion_);
  }

  void update_gray_state(SimTime now, Rng& rng) noexcept {
    if (!warmed_up()) return;
    if (suspicion_ >= policy_.phi_quarantine) {
      // Slow-but-alive: every response succeeds but far off baseline.
      quarantine(now, rng);
    } else if (suspicion_ >= policy_.phi_suspect) {
      enter(State::kSuspect);
    } else if (state_ == State::kSuspect &&
               suspicion_ < 0.5 * policy_.phi_suspect) {
      enter(State::kHealthy);  // hysteresis on the way back down
    }
  }

  Policy policy_;
  State state_ = State::kHealthy;
  DecorrelatedJitter probe_jitter_;
  // Latency baseline.
  double mean_usec_ = 0.0;
  double dev_usec_ = 0.0;
  int samples_ = 0;
  // Accrual.
  double suspicion_ = 0.0;
  int consecutive_errors_ = 0;
  // Quarantine bookkeeping.
  SimTime probe_at_ = 0;
  SimTime quarantined_until_recently_ = 0;
  int probation_left_ = 0;
  std::uint64_t enters_ = 0;
  std::uint64_t exits_ = 0;
};

}  // namespace proteus::core
