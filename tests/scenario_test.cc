#include "cluster/scenario.h"

#include "cluster/report.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "mini_scenario.h"

namespace proteus::cluster {
namespace {

TEST(Scenario, ProducesPopulatedResult) {
  const ScenarioResult r = run_scenario(mini_config(ScenarioKind::kProteus));
  EXPECT_EQ(r.kind, ScenarioKind::kProteus);
  EXPECT_EQ(r.name, "Proteus");
  EXPECT_EQ(r.slots.size(), 16u);  // 80 s / 5 s
  EXPECT_GT(r.total_requests, 10'000u);
  EXPECT_GT(r.total_energy_kwh, 0.0);
  EXPECT_GT(r.overall_hit_ratio, 0.3);
  EXPECT_FALSE(r.cluster_power.empty());
  std::uint64_t slot_requests = 0;
  for (const auto& s : r.slots) slot_requests += s.requests;
  EXPECT_EQ(slot_requests, r.total_requests);
}

TEST(Scenario, StaticKeepsAllServersOn) {
  const ScenarioResult r = run_scenario(mini_config(ScenarioKind::kStatic));
  for (const auto& s : r.slots) {
    EXPECT_EQ(s.n_active, 4);
  }
  EXPECT_EQ(r.old_server_hits, 0u);
}

TEST(Scenario, DynamicScenariosFollowSchedule) {
  for (ScenarioKind kind :
       {ScenarioKind::kNaive, ScenarioKind::kConsistent, ScenarioKind::kProteus}) {
    const ScenarioResult r = run_scenario(mini_config(kind));
    // Slots 0-3 run with n=4, slots 4-7 with n=2, etc.
    EXPECT_EQ(r.slots[1].n_active, 4) << r.name;
    EXPECT_EQ(r.slots[5].n_active, 2) << r.name;
    EXPECT_EQ(r.slots[9].n_active, 4) << r.name;
    EXPECT_EQ(r.slots[13].n_active, 2) << r.name;
  }
}

TEST(Scenario, ProteusUsesOnDemandMigration) {
  const ScenarioResult r = run_scenario(mini_config(ScenarioKind::kProteus));
  EXPECT_GT(r.old_server_hits, 100u);
  const ScenarioResult naive = run_scenario(mini_config(ScenarioKind::kNaive));
  EXPECT_EQ(naive.old_server_hits, 0u);
}

TEST(Scenario, NaiveTransitionsHammerTheDatabase) {
  const ScenarioResult naive = run_scenario(mini_config(ScenarioKind::kNaive));
  const ScenarioResult prot = run_scenario(mini_config(ScenarioKind::kProteus));
  // Both pay the same cold fill; naive additionally re-fetches the remapped
  // working set at each of the three transitions.
  EXPECT_GT(naive.db_queries, prot.db_queries + 500)
      << "naive=" << naive.db_queries << " proteus=" << prot.db_queries;
}

TEST(Scenario, NaiveShowsDelaySpikeProteusDoesNot) {
  const ScenarioResult naive = run_scenario(mini_config(ScenarioKind::kNaive));
  const ScenarioResult prot = run_scenario(mini_config(ScenarioKind::kProteus));
  // Skip the shared cold-start slots; compare the post-warmup tails where
  // only transition behaviour differs.
  double naive_peak = 0, prot_peak = 0;
  for (std::size_t s = 3; s < naive.slots.size(); ++s) {
    naive_peak = std::max(naive_peak, naive.slots[s].p999_ms);
  }
  for (std::size_t s = 3; s < prot.slots.size(); ++s) {
    prot_peak = std::max(prot_peak, prot.slots[s].p999_ms);
  }
  EXPECT_GT(naive_peak, 1.5 * prot_peak)
      << "naive=" << naive_peak << "ms proteus=" << prot_peak << "ms";
}

TEST(Scenario, DynamicProvisioningSavesCacheEnergy) {
  const ScenarioResult st = run_scenario(mini_config(ScenarioKind::kStatic));
  const ScenarioResult prot = run_scenario(mini_config(ScenarioKind::kProteus));
  // Half the experiment runs with 2 of 4 cache servers off.
  EXPECT_LT(prot.cache_energy_kwh, 0.9 * st.cache_energy_kwh);
  EXPECT_LT(prot.total_energy_kwh, st.total_energy_kwh);
}

TEST(Scenario, EnergyDecomposesByTier) {
  const ScenarioResult r = run_scenario(mini_config(ScenarioKind::kProteus));
  EXPECT_NEAR(r.total_energy_kwh,
              r.web_energy_kwh + r.cache_energy_kwh + r.db_energy_kwh,
              r.total_energy_kwh * 1e-9);
}

TEST(Scenario, DeterministicAcrossRuns) {
  const ScenarioResult a = run_scenario(mini_config(ScenarioKind::kProteus));
  const ScenarioResult b = run_scenario(mini_config(ScenarioKind::kProteus));
  EXPECT_EQ(a.total_requests, b.total_requests);
  EXPECT_EQ(a.db_queries, b.db_queries);
  EXPECT_DOUBLE_EQ(a.total_energy_kwh, b.total_energy_kwh);
}

// Pinned outputs of mini_config for every scenario kind. The simulator must
// reproduce them bit for bit: a change to the event order, the RNG streams
// or the model shows up here, which DeterministicAcrossRuns (two runs of the
// same binary) cannot catch.
struct ScenarioGolden {
  ScenarioKind kind;
  std::uint64_t total_requests;
  std::uint64_t db_queries;
  std::uint64_t old_server_hits;
  std::uint64_t digest_false_positives;
  double overall_hit_ratio;
  double overall_p999_ms;
  double total_energy_kwh;
};

constexpr ScenarioGolden kMiniGoldens[] = {
    {ScenarioKind::kStatic, 15842, 1002, 0, 0, 0.93675041030172956,
     329.72800000000001, 0.0094193106648437497},
    {ScenarioKind::kNaive, 15801, 1863, 0, 0, 0.88209606986899558,
     329.72800000000001, 0.0083770745312500006},
    {ScenarioKind::kConsistent, 15810, 1764, 0, 0, 0.88842504743833017,
     329.72800000000001, 0.0083528472546875003},
    {ScenarioKind::kProteus, 15826, 1289, 607, 0, 0.88462240613399867,
     329.72800000000001, 0.0086572831986979158},
};

TEST(Scenario, MiniConfigMatchesPinnedGoldens) {
  for (const ScenarioGolden& g : kMiniGoldens) {
    const ScenarioResult r = run_scenario(mini_config(g.kind));
    EXPECT_EQ(r.total_requests, g.total_requests) << r.name;
    EXPECT_EQ(r.db_queries, g.db_queries) << r.name;
    EXPECT_EQ(r.old_server_hits, g.old_server_hits) << r.name;
    EXPECT_EQ(r.digest_false_positives, g.digest_false_positives) << r.name;
    EXPECT_EQ(r.overall_hit_ratio, g.overall_hit_ratio) << r.name;
    EXPECT_EQ(r.overall_p999_ms, g.overall_p999_ms) << r.name;
    EXPECT_EQ(r.total_energy_kwh, g.total_energy_kwh) << r.name;
  }
}

TEST(Scenario, AppliedScheduleMatchesInputInOpenLoop) {
  const ScenarioResult r = run_scenario(mini_config(ScenarioKind::kProteus));
  EXPECT_EQ(r.applied_schedule, (std::vector<int>{4, 2, 4, 2}));
}

TEST(Scenario, DelayFeedbackGrowsUnderOverloadAndShrinksWhenIdle) {
  ScenarioConfig cfg = mini_config(ScenarioKind::kProteus);
  cfg.schedule = {2, 2, 2, 2, 2, 2};  // only the first entry seeds the loop
  cfg.use_delay_feedback = true;
  cfg.feedback.reference = 60 * kMillisecond;
  cfg.feedback.bound = 80 * kMillisecond;
  cfg.feedback.min_servers = 1;
  cfg.feedback.max_servers = 4;
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_EQ(r.applied_schedule.size(), 6u);
  // The cold fill overloads the database; the controller must react by
  // growing beyond the seed at least once.
  int peak = 0;
  for (int n : r.applied_schedule) peak = std::max(peak, n);
  EXPECT_GT(peak, 2);
  for (int n : r.applied_schedule) {
    EXPECT_GE(n, 1);
    EXPECT_LE(n, 4);
  }
}

TEST(Scenario, PiFeedbackControllerDrivesTheLoop) {
  ScenarioConfig cfg = mini_config(ScenarioKind::kProteus);
  cfg.schedule = {2, 2, 2, 2, 2, 2};
  cfg.use_delay_feedback = true;
  cfg.feedback_kind = ScenarioConfig::FeedbackKind::kPi;
  cfg.pi_feedback.reference = 60 * kMillisecond;
  cfg.pi_feedback.min_servers = 1;
  cfg.pi_feedback.max_servers = 4;
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_EQ(r.applied_schedule.size(), 6u);
  int peak = 0;
  for (int n : r.applied_schedule) {
    EXPECT_GE(n, 1);
    EXPECT_LE(n, 4);
    peak = std::max(peak, n);
  }
  EXPECT_GT(peak, 2) << "the PI loop never reacted to the cold-fill overload";
}

TEST(Scenario, StaticIgnoresDelayFeedback) {
  ScenarioConfig cfg = mini_config(ScenarioKind::kStatic);
  cfg.use_delay_feedback = true;
  const ScenarioResult r = run_scenario(cfg);
  for (const auto& s : r.slots) EXPECT_EQ(s.n_active, 4);
}

TEST(Scenario, HeterogeneousPowerProfilesChangeCacheEnergy) {
  ScenarioConfig cheap = mini_config(ScenarioKind::kStatic);
  cheap.cache_power_profiles.assign(4, ServerPowerProfile{2.0, 20.0, 40.0});
  ScenarioConfig hungry = mini_config(ScenarioKind::kStatic);
  hungry.cache_power_profiles.assign(4, ServerPowerProfile{10.0, 90.0, 160.0});
  const ScenarioResult a = run_scenario(cheap);
  const ScenarioResult b = run_scenario(hungry);
  EXPECT_LT(a.cache_energy_kwh * 2, b.cache_energy_kwh);
  // Web/db tiers use the shared uniform profile either way.
  EXPECT_NEAR(a.web_energy_kwh, b.web_energy_kwh, 1e-9);
}

TEST(Scenario, ReportsSerializeARealRun) {
  const ScenarioResult r = run_scenario(mini_config(ScenarioKind::kProteus));
  const std::string csv = slots_csv(r);
  // Header + one row per metric slot.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            r.slots.size() + 1);
  const std::string json = result_json(r);
  EXPECT_NE(json.find("\"scenario\": \"Proteus\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  const std::string md = comparison_markdown({r, r});
  EXPECT_NE(md.find("| Proteus |"), std::string::npos);
}

TEST(Scenario, SlotDbQpsAccountsForAllQueries) {
  const ScenarioResult r = run_scenario(mini_config(ScenarioKind::kNaive));
  double total_from_slots = 0;
  for (const auto& s : r.slots) {
    total_from_slots += s.db_qps * to_seconds(5 * kSecond);
  }
  // Slot-integrated db rate ~ total queries (the drain after the horizon
  // adds a few stragglers outside any slot).
  EXPECT_NEAR(total_from_slots, static_cast<double>(r.db_queries),
              0.05 * static_cast<double>(r.db_queries) + 50);
}

TEST(Scenario, DefaultExperimentConfigIsWellFormed) {
  const ScenarioConfig cfg = default_experiment_config(ScenarioKind::kProteus);
  EXPECT_EQ(cfg.schedule.size(), 33u);
  const int hi = *std::max_element(cfg.schedule.begin(), cfg.schedule.end());
  const int lo = *std::min_element(cfg.schedule.begin(), cfg.schedule.end());
  EXPECT_LE(hi, cfg.cache.num_servers);
  EXPECT_GE(lo, 1);
  EXPECT_GT(hi, lo) << "the schedule should breathe with the diurnal load";
  EXPECT_EQ(cfg.db.num_shards, 7);
  EXPECT_EQ(cfg.web.num_servers, 10);
  EXPECT_EQ(cfg.cache.num_servers, 10);
}

}  // namespace
}  // namespace proteus::cluster
