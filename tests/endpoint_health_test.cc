// Unit tests for the gray-failure primitives in core/endpoint_health.h:
// the decorrelated-jitter retry scheduler, the hedge token budget, and the
// phi-accrual EndpointHealth state machine (warmup, latency accrual,
// fail-stop fast path, probation re-admission, flap damping, policy checks).
#include "core/endpoint_health.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace proteus::core {
namespace {

TEST(DecorrelatedJitter, DrawsStayInRangeAndWander) {
  const SimTime base = 100 * kMillisecond;
  const SimTime cap = 5 * kSecond;
  DecorrelatedJitter jitter(base, cap);
  Rng rng(42);

  SimTime prev = base;
  std::set<SimTime> distinct;
  SimTime lo = cap, hi = 0;
  for (int i = 0; i < 200; ++i) {
    const SimTime d = jitter.next(rng);
    ASSERT_GE(d, base) << "delay below base at draw " << i;
    ASSERT_LE(d, cap) << "delay above cap at draw " << i;
    ASSERT_LE(d, std::max(base, 3 * prev))
        << "decorrelated bound violated at draw " << i;
    prev = d;
    distinct.insert(d);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  // Spread, not clustering: the 200 draws must cover a wide slice of
  // [base, cap] with almost no repeats — a degenerate generator (fixed or
  // 2^k-stepped backoff) collapses both measures.
  EXPECT_GT(distinct.size(), 150u);
  EXPECT_GT(hi - lo, (cap - base) / 4);
}

TEST(DecorrelatedJitter, DifferentSeedsGiveDifferentSchedules) {
  // The anti-thundering-herd property: clients that quarantined the same
  // endpoint in the same instant must not re-probe in lockstep.
  DecorrelatedJitter a(100 * kMillisecond, 5 * kSecond);
  DecorrelatedJitter b(100 * kMillisecond, 5 * kSecond);
  Rng rng_a(1), rng_b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.next(rng_a) != b.next(rng_b)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(HedgeBudget, BoundsHedgesToTheConfiguredFraction) {
  HedgeBudget budget(/*rate=*/0.05, /*burst=*/8.0);
  std::uint64_t fired = 0;
  for (int i = 0; i < 10000; ++i) {
    budget.on_request();
    if (budget.try_acquire()) ++fired;
  }
  // <= 5% of offered load plus the small initial allowance.
  EXPECT_LE(fired, 500u + 8u);
  EXPECT_GE(fired, 400u);  // and the budget is actually usable
}

TEST(HedgeBudget, BurstCapsIdleAccumulation) {
  HedgeBudget budget(/*rate=*/0.05, /*burst=*/2.0);
  for (int i = 0; i < 10000; ++i) budget.on_request();
  // A long quiet stretch must not bank unlimited hedges.
  int burst = 0;
  while (budget.try_acquire()) ++burst;
  EXPECT_LE(burst, 2);
}

EndpointHealth::Policy sensitive_policy() {
  EndpointHealth::Policy p;
  p.min_deviation_usec = 100.0;  // unit tests drive latencies directly
  return p;
}

TEST(EndpointHealth, WarmupSuppressesLatencyAccrual) {
  EndpointHealth h(sensitive_policy());
  Rng rng(7);
  // Absurd outliers during warmup must not move the state machine: the
  // baseline does not exist yet.
  for (int i = 0; i < 7; ++i) {
    h.record_success(i * kSecond, (i % 2 == 0) ? 100 : 1000000, rng);
    EXPECT_EQ(h.state(), EndpointHealth::State::kHealthy);
  }
  EXPECT_FALSE(h.warmed_up());
  h.record_success(8 * kSecond, 100, rng);
  EXPECT_TRUE(h.warmed_up());
}

TEST(EndpointHealth, SustainedLatencyOutliersQuarantine) {
  EndpointHealth h(sensitive_policy());
  Rng rng(7);
  SimTime now = 0;
  for (int i = 0; i < 20; ++i) {
    h.record_success(now += kMillisecond, 1000, rng);  // 1 ms baseline
  }
  ASSERT_EQ(h.state(), EndpointHealth::State::kHealthy);
  EXPECT_EQ(h.suspicion(), 0.0);

  // The endpoint turns slow-but-alive: every response still succeeds but
  // sits far off baseline. Suspicion must accrue through suspect into
  // quarantine — the gray failure a binary breaker never trips on.
  bool suspected = false;
  int rounds = 0;
  while (h.state() != EndpointHealth::State::kQuarantined && rounds < 50) {
    h.record_success(now += kMillisecond, 200000, rng);  // 200x baseline
    suspected |= h.state() == EndpointHealth::State::kSuspect;
    ++rounds;
  }
  EXPECT_EQ(h.state(), EndpointHealth::State::kQuarantined);
  EXPECT_TRUE(suspected) << "must pass through suspect on the way down";
  EXPECT_LE(rounds, 10) << "sustained 200x latency should accrue quickly";
  EXPECT_EQ(h.quarantine_enters(), 1u);

  // Quarantined: no admission until the probe dwell elapses.
  EXPECT_FALSE(h.allow(now));
  EXPECT_GT(h.probe_at(), now);
}

TEST(EndpointHealth, ConsecutiveErrorsQuarantineEvenCold) {
  EndpointHealth h(sensitive_policy());
  Rng rng(7);
  // The fail-stop fast path needs no latency baseline.
  h.record_failure(0, rng);
  h.record_failure(0, rng);
  EXPECT_NE(h.state(), EndpointHealth::State::kQuarantined);
  h.record_failure(0, rng);
  EXPECT_EQ(h.state(), EndpointHealth::State::kQuarantined);
}

TEST(EndpointHealth, ProbationReadmitsAfterCleanResponses) {
  EndpointHealth h(sensitive_policy());
  Rng rng(7);
  for (int i = 0; i < 3; ++i) h.record_failure(kSecond, rng);
  ASSERT_EQ(h.state(), EndpointHealth::State::kQuarantined);

  // First admission at the probe time opens probation.
  const SimTime probe = h.probe_at();
  EXPECT_FALSE(h.allow(probe - 1));
  EXPECT_TRUE(h.allow(probe));
  EXPECT_EQ(h.state(), EndpointHealth::State::kProbation);

  // probation_successes clean responses re-admit...
  h.record_success(probe + 1, 1000, rng);
  h.record_success(probe + 2, 1000, rng);
  EXPECT_EQ(h.state(), EndpointHealth::State::kProbation);
  h.record_success(probe + 3, 1000, rng);
  EXPECT_EQ(h.state(), EndpointHealth::State::kHealthy);
  EXPECT_EQ(h.suspicion(), 0.0);
  EXPECT_EQ(h.quarantine_exits(), 1u);
}

TEST(EndpointHealth, ProbationErrorRequarantines) {
  EndpointHealth h(sensitive_policy());
  Rng rng(7);
  for (int i = 0; i < 3; ++i) h.record_failure(kSecond, rng);
  const SimTime probe = h.probe_at();
  ASSERT_TRUE(h.allow(probe));
  ASSERT_EQ(h.state(), EndpointHealth::State::kProbation);
  // One error during probation is disqualifying — straight back inside.
  h.record_failure(probe + 1, rng);
  EXPECT_EQ(h.state(), EndpointHealth::State::kQuarantined);
  EXPECT_EQ(h.quarantine_enters(), 2u);
  EXPECT_GT(h.probe_at(), probe);
}

TEST(EndpointHealth, FlapDampingGrowsDwellsAndQuietStretchResets) {
  EndpointHealth::Policy p = sensitive_policy();
  p.quarantine_base = 100 * kMillisecond;
  p.quarantine_cap = 10 * kSecond;
  p.flap_window = 30 * kSecond;
  EndpointHealth h(p);
  Rng rng(7);

  // Flap repeatedly: quarantine, pass probation, immediately fail again.
  // Dwells are drawn from a jitter schedule whose range only grows while
  // the endpoint keeps bouncing; track the max observed.
  SimTime now = 0;
  SimTime max_dwell = 0;
  for (int flap = 0; flap < 8; ++flap) {
    for (int i = 0; i < 3; ++i) h.record_failure(now, rng);
    ASSERT_EQ(h.state(), EndpointHealth::State::kQuarantined);
    max_dwell = std::max(max_dwell, h.probe_at() - now);
    now = h.probe_at();
    ASSERT_TRUE(h.allow(now));
    for (int i = 0; i < 3; ++i) h.record_success(now, 1000, rng);
    ASSERT_EQ(h.state(), EndpointHealth::State::kHealthy);
  }
  EXPECT_GT(max_dwell, 3 * p.quarantine_base)
      << "consecutive flaps must grow the re-probe dwell";

  // A long quiet stretch resets the schedule: the next quarantine's dwell
  // is drawn from the base range again.
  now += p.flap_window + kSecond;
  for (int i = 0; i < 3; ++i) h.record_failure(now, rng);
  ASSERT_EQ(h.state(), EndpointHealth::State::kQuarantined);
  EXPECT_LE(h.probe_at() - now, 3 * p.quarantine_base)
      << "a sustained healthy stretch must reset flap damping";
}

TEST(EndpointHealth, HedgeDelayTracksTheBaseline) {
  EndpointHealth::Policy p = sensitive_policy();
  EndpointHealth h(p);
  Rng rng(7);
  // Before warmup the cap disables hedging in practice.
  EXPECT_EQ(h.hedge_delay(), p.hedge_delay_cap);

  SimTime now = 0;
  for (int i = 0; i < 50; ++i) h.record_success(now += kMillisecond, 20000, rng);
  // mean ~20ms, small deviation: the trigger sits a little above the mean
  // and far below the cap.
  EXPECT_GT(h.hedge_delay(), 20000);
  EXPECT_LT(h.hedge_delay(), p.hedge_delay_cap);

  // A slower baseline moves the trigger out with it (adaptive, per
  // endpoint — a uniformly slow server is not hedge-worthy).
  for (int i = 0; i < 200; ++i) {
    h.record_success(now += kMillisecond, 60000, rng);
  }
  EXPECT_GT(h.hedge_delay(), 60000);
}

TEST(EndpointHealthDeathTest, HedgeDelayFloorAboveCapIsRejected) {
  // hedge_delay() clamps into [floor, cap]; a floor above the cap would be
  // undefined behaviour, so the constructor refuses the policy.
  EndpointHealth::Policy p;
  p.hedge_delay_floor = 2 * kSecond;
  p.hedge_delay_cap = kSecond;
  EXPECT_DEATH(EndpointHealth{p}, "hedge_delay_floor <= ");
  // floor == cap pins the delay: the way to push the hedge past a deadline.
  p.hedge_delay_cap = p.hedge_delay_floor;
  EXPECT_EQ(EndpointHealth(p).hedge_delay(), 2 * kSecond);
}

TEST(EndpointHealth, SuspectHysteresisRecoversWithoutQuarantine) {
  EndpointHealth h(sensitive_policy());
  Rng rng(7);
  SimTime now = 0;
  for (int i = 0; i < 20; ++i) h.record_success(now += kMillisecond, 1000, rng);

  // A short burst of moderate outliers: suspicion rises into suspect but
  // not quarantine...
  int rounds = 0;
  while (h.state() != EndpointHealth::State::kSuspect && rounds < 10) {
    h.record_success(now += kMillisecond, 4000, rng);
    ++rounds;
  }
  ASSERT_EQ(h.state(), EndpointHealth::State::kSuspect);
  ASSERT_EQ(h.quarantine_enters(), 0u);
  // ...and a run of on-baseline responses decays it back to healthy.
  for (int i = 0; i < 50 && h.state() != EndpointHealth::State::kHealthy;
       ++i) {
    h.record_success(now += kMillisecond, 1000, rng);
  }
  EXPECT_EQ(h.state(), EndpointHealth::State::kHealthy);
  EXPECT_EQ(h.quarantine_enters(), 0u);
}

}  // namespace
}  // namespace proteus::core
