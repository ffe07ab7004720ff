// Ablation — closed delay-feedback provisioning vs the precomputed
// rate-proportional schedule.
//
// The paper drives provisioning with a delay-feedback loop (reference
// 0.4 s, bound 0.5 s, one decision per slot) and notes the policy itself is
// pluggable. This bench runs Proteus under both policies on the identical
// workload and compares the schedules, energy and tail latency, showing the
// actuator (Proteus) keeps transitions smooth regardless of who decides.
#include <cstdio>

#include "cluster/scenario.h"

int main() {
  using namespace proteus;
  using cluster::ScenarioKind;

  cluster::ScenarioConfig open_loop =
      cluster::default_experiment_config(ScenarioKind::kProteus);

  cluster::ScenarioConfig closed_loop = open_loop;
  closed_loop.use_delay_feedback = true;
  // Thresholds scaled to the compressed experiment's latency floor
  // (baseline p99.9 ~60 ms, database-overload p99.9 in the hundreds).
  closed_loop.feedback.reference = 90 * kMillisecond;
  closed_loop.feedback.bound = 110 * kMillisecond;
  closed_loop.feedback.min_servers = 1;
  closed_loop.feedback.max_servers = closed_loop.cache.num_servers;

  cluster::ScenarioConfig pi_loop = closed_loop;
  pi_loop.feedback_kind = cluster::ScenarioConfig::FeedbackKind::kPi;
  pi_loop.pi_feedback.reference = 100 * kMillisecond;
  pi_loop.pi_feedback.max_servers = pi_loop.cache.num_servers;

  std::fprintf(stderr, "running open-loop (rate-proportional)...\n");
  const cluster::ScenarioResult open = cluster::run_scenario(open_loop);
  std::fprintf(stderr, "running closed-loop (step delay feedback)...\n");
  const cluster::ScenarioResult closed = cluster::run_scenario(closed_loop);
  std::fprintf(stderr, "running closed-loop (PI delay feedback)...\n");
  const cluster::ScenarioResult pi = cluster::run_scenario(pi_loop);

  std::printf("# Ablation — provisioning policy (actuated by Proteus)\n");
  std::printf("%-6s %-14s %-14s %-14s\n", "slot", "rate_prop_n", "step_fb_n",
              "pi_fb_n");
  for (std::size_t s = 0; s < open.applied_schedule.size(); ++s) {
    std::printf("%-6zu %-14d %-14d %-14d\n", s, open.applied_schedule[s],
                s < closed.applied_schedule.size()
                    ? closed.applied_schedule[s]
                    : -1,
                s < pi.applied_schedule.size() ? pi.applied_schedule[s] : -1);
  }

  auto post_warmup_peak = [](const cluster::ScenarioResult& r) {
    double peak = 0;
    for (std::size_t s = 4; s < r.slots.size(); ++s) {
      peak = std::max(peak, r.slots[s].p999_ms);
    }
    return peak;
  };
  std::printf("\n%-22s %-14s %-14s %-14s %-12s\n", "policy", "energy_kWh",
              "cache_kWh", "max_p999[ms]", "hit_ratio");
  std::printf("%-22s %-14.4f %-14.4f %-14.2f %-12.3f\n", "rate-proportional",
              open.total_energy_kwh, open.cache_energy_kwh,
              post_warmup_peak(open), open.overall_hit_ratio);
  std::printf("%-22s %-14.4f %-14.4f %-14.2f %-12.3f\n", "step-feedback",
              closed.total_energy_kwh, closed.cache_energy_kwh,
              post_warmup_peak(closed), closed.overall_hit_ratio);
  std::printf("%-22s %-14.4f %-14.4f %-14.2f %-12.3f\n", "pi-feedback",
              pi.total_energy_kwh, pi.cache_energy_kwh, post_warmup_peak(pi),
              pi.overall_hit_ratio);
  std::printf("# expected: the rate-proportional schedule breathes with\n");
  std::printf("# the load. Step feedback climbs to 7 servers and holds\n");
  std::printf("# there, so its cache energy stays within about 1%% of\n");
  std::printf("# rate-proportional. Only the PI loop shrinks harder (it\n");
  std::printf("# sheds servers until the tail nears its reference), trading\n");
  std::printf("# tail latency and hit ratio for about 23%% less cache-tier\n");
  std::printf("# energy. No policy causes TRANSITION spikes — Proteus\n");
  std::printf("# actuates all three.\n");
  return 0;
}
