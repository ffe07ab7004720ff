#include "core/proteus.h"

#include <algorithm>

#include "common/check.h"

namespace proteus {
namespace {

int initial_servers(const ProteusOptions& options) {
  return options.initial_servers > 0 ? options.initial_servers
                                     : options.max_servers;
}

}  // namespace

Proteus::Proteus(ProteusOptions options, Backend backend)
    : options_(std::move(options)),
      backend_(std::move(backend)),
      placement_(
          std::make_shared<ring::ProteusPlacement>(options_.max_servers)),
      router_(placement_, initial_servers(options_), options_.replicas) {
  PROTEUS_CHECK(backend_ != nullptr);
  PROTEUS_CHECK(options_.max_servers >= 1);
  PROTEUS_CHECK(options_.replicas >= 1);
  retrieval_options_.counters = {
      .primary_hits = &stats_.new_server_hits,
      .replica_hits = &stats_.replica_ring_hits,
      .old_server_hits = &stats_.old_server_hits,
      .skips = &stats_.failed_server_skips,
      .false_positives = &stats_.digest_false_positives,
      .false_negatives = &stats_.digest_false_negatives,
      .backend_fetches = &stats_.backend_fetches,
      .migrations_deferred = &stats_.migrations_deferred};
  retrieval_options_.trace = options_.trace;
  retrieval_options_.throttle = options_.migration_throttle;
  const auto n = static_cast<std::size_t>(options_.max_servers);
  failed_.assign(n, false);
  servers_.reserve(n);
  for (int i = 0; i < options_.max_servers; ++i) {
    cache::CacheConfig per_server = options_.per_server;
    per_server.trace = options_.trace;
    per_server.trace_server_id = i;
    servers_.push_back(std::make_unique<cache::CacheServer>(per_server));
    if (i >= router_.active()) servers_.back()->power_off();
  }

  if (!options_.journal_path.empty()) {
    std::vector<core::JournalRecord> replayed;
    if (journal_.open(options_.journal_path, replayed)) {
      std::uint64_t epoch = 0;
      auto pending = core::interpret_journal(replayed, epoch);
      epoch_ = epoch;
      stats_.journal_records_replayed = replayed.size();
      const bool resumable =
          pending.has_value() && pending->n_old >= 1 &&
          pending->n_old <= options_.max_servers && pending->n_new >= 1 &&
          pending->n_new <= options_.max_servers;
      obs::emit(options_.trace, 0, obs::TraceEventKind::kJournalReplay,
                resumable ? 1 : 0, -1, replayed.size());
      if (resumable) {
        ++stats_.journal_transitions_resumed;
        resume_transition(*pending);
      }
    }
  }
}

void Proteus::resume_transition(const core::PendingTransition& t) {
  if (t.epoch > epoch_) epoch_ = t.epoch;
  // Rebuild the power topology the coordinator died with: every server that
  // was active under either mapping is on; the recorded leavers drain.
  // Cache CONTENTS are gone if this process restarted — only the plan is
  // durable — so resumed digests may over-claim; Algorithm 2 absorbs that
  // as ordinary false positives.
  for (int i = 0; i < options_.max_servers; ++i) {
    const bool want_on = i < std::max(t.n_old, t.n_new);
    cache::CacheServer& server = mutable_server(i);
    if (want_on && server.power_state() == cache::PowerState::kOff) {
      server.power_on();
    } else if (!want_on && server.power_state() != cache::PowerState::kOff) {
      server.power_off();
    }
  }
  for (int i : t.draining) {
    if (i < 0 || i >= options_.max_servers) continue;
    mutable_server(i).begin_draining();
  }
  std::vector<std::optional<bloom::BloomFilter>> digests(
      static_cast<std::size_t>(options_.max_servers));
  for (const auto& [server, encoded] : t.digests) {
    if (server < 0 || server >= options_.max_servers) continue;
    if (encoded.size() < 24 || encoded.size() % 8 != 0) continue;
    digests[static_cast<std::size_t>(server)] = cache::decode_digest(encoded);
  }
  router_.set_active(t.n_old);
  router_.begin_transition(t.n_new, t.drain_end, std::move(digests));
}

void Proteus::tick(SimTime now) {
  if (in_transition() && now >= router_.transition_end()) {
    finalize_transition(now);
  }
  // Audit feed rides the tick, at most once per second of `now`, so the
  // per-get cost with auditing off is this one pointer test.
  if (options_.auditor != nullptr && now - last_audit_feed_ >= kSecond) {
    feed_auditor(now);
  }
}

void Proteus::feed_auditor(SimTime now) {
  last_audit_feed_ = now;
  std::vector<obs::ServerAuditSample> fleet(
      static_cast<std::size_t>(options_.max_servers));
  for (int i = 0; i < options_.max_servers; ++i) {
    const cache::CacheServer& s = server(i);
    auto& sample = fleet[static_cast<std::size_t>(i)];
    sample.power_state = static_cast<int>(s.power_state());
    sample.gets_total = static_cast<double>(s.stats().gets);
    sample.hits_total = static_cast<double>(s.stats().hits);
  }
  // Observed Eq. 5 inputs: false negatives are detected on the
  // backend-fetch path, so fetches are the opportunity count.
  options_.auditor->observe(
      now, fleet, static_cast<double>(stats_.digest_false_negatives),
      static_cast<double>(stats_.backend_fetches));
}

void Proteus::finalize_transition(SimTime now) {
  // A resize that overtakes the drain window ends it early, at `now`; the
  // trace must never be stamped with the deadline still in the future.
  const SimTime at = std::min(now, router_.transition_end());
  // A crashed leaver is already off.
  for (int i = 0; i < options_.max_servers; ++i) {
    if (server(i).power_state() != cache::PowerState::kDraining) continue;
    obs::emit(options_.trace, at, obs::TraceEventKind::kPowerOff, i, -1,
              server(i).item_count());
    mutable_server(i).power_off();
  }
  router_.finalize_transition();
  if (journal_.is_open()) {
    core::JournalRecord fin;
    fin.kind = core::JournalRecordKind::kFinalize;
    fin.a = epoch_;
    journal_.append(fin);
    // Nothing is pending anymore: compact to just the finalize marker so
    // the log stays bounded while the epoch survives the next restart.
    journal_.compact({fin});
  }
  obs::emit(options_.trace, at, obs::TraceEventKind::kResizeEnd,
            active_servers());
}

std::string Proteus::get(std::string_view key, SimTime now) {
  // Spans use the steady clock (span_clock_now), not the caller's possibly
  // simulated `now`, so durations are real even under a frozen SimTime.
  const SimTime start_us =
      options_.spans != nullptr ? obs::span_clock_now() : 0;
  obs::TraceContext ctx = obs::TraceContext::begin(options_.spans, start_us);
  std::string value = get_inner(key, now, ctx);
  ctx.finish(obs::span_clock_now(), start_us, key);
  return value;
}

std::string Proteus::get_inner(std::string_view key, SimTime now,
                               obs::TraceContext& ctx) {
  using Step = core::Retrieval::Step;
  using Reply = core::Retrieval::Reply;
  tick(now);
  ++stats_.gets;
  if (ctx.active()) ctx.in_transition = in_transition();
  const std::string k(key);
  // core::Retrieval runs Algorithm 2; this is its synchronous transport.
  core::Retrieval retrieval(retrieval_options_);
  for (auto a = retrieval.start(key, replicas(), now, &ctx);;) {
    switch (a.step) {
      case Step::kRoute:
        a = retrieval.routed(router_.decide(key, a.ring));
        break;
      case Step::kGet: {
        // Crashed or powered off.
        if (!usable(a.server)) {
          a = retrieval.got(Reply::kDown);
          break;
        }
        std::optional<std::string> value = mutable_server(a.server).get(k, now);
        a = value ? retrieval.got(Reply::kHit, std::move(*value))
                  : retrieval.got(Reply::kMiss);
        break;
      }
      case Step::kProbe:  // in-process, §IV-B false negatives cost nothing
        a = retrieval.probed(usable(a.server) &&
                             server(a.server).contains(k, now));
        break;
      case Step::kBackend:
        a = retrieval.fetched(core::Retrieval::Fetch::kValue, backend_(key));
        break;
      case Step::kStore:
        if (usable(a.server)) {
          const std::string& value = retrieval.value();
          mutable_server(a.server).set(k, value, now, charge_for(value));
        }
        a = retrieval.stored(usable(a.server));
        break;
      case Step::kDone:
        return std::move(retrieval.value());
    }
  }
}

std::vector<int> Proteus::replica_servers(std::string_view key) const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(replicas()));
  for (int r = 0; r < replicas(); ++r) {
    out.push_back(router_.decide(key, r).primary);
  }
  return out;
}

void Proteus::put(std::string_view key, std::string value, SimTime now) {
  tick(now);
  ++stats_.puts;
  const std::string k(key);
  const std::size_t charge = charge_for(value);
  const std::vector<int> locations = replica_servers(key);
  // Invalidate every other powered location first. Besides the in-flight
  // transition's old locations, copies abandoned by EARLIER mapping epochs
  // may still sit on servers that stayed powered (a scale-up moves keys off
  // a server without deleting them); if the mapping later returns there,
  // such a copy would resurrect a stale value. Write-all with global
  // invalidation keeps reads exactly as fresh as the backend.
  for (int i = 0; i < options_.max_servers; ++i) {
    if (server(i).power_state() != cache::PowerState::kOff &&
        std::find(locations.begin(), locations.end(), i) == locations.end()) {
      mutable_server(i).erase(k);
    }
  }
  for (int target : locations) {
    if (usable(target)) mutable_server(target).set(k, value, now, charge);
  }
}

void Proteus::erase(std::string_view key, SimTime now) {
  tick(now);
  const std::string k(key);
  for (int i = 0; i < options_.max_servers; ++i) {
    if (server(i).power_state() != cache::PowerState::kOff) {
      mutable_server(i).erase(k);
    }
  }
}

void Proteus::resize(int n_active, SimTime now) {
  tick(now);
  PROTEUS_CHECK(n_active >= 1 && n_active <= options_.max_servers);
  const int n_old = active_servers();
  if (n_active == n_old) return;
  ++stats_.resizes;

  // Overlapping transitions: finalize the pending one first (§IV assumes
  // the provisioning period is much longer than TTL).
  if (in_transition()) finalize_transition(now);

  // Bump the fencing epoch and write the plan ahead of acting on it: after
  // a crash anywhere past this append, replay reconstructs the transition.
  ++epoch_;
  const SimTime drain_end = now + options_.ttl;
  if (journal_.is_open()) {
    core::JournalRecord begin;
    begin.kind = core::JournalRecordKind::kResizeBegin;
    begin.a = epoch_;
    begin.b = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(n_old))
               << 32) |
              static_cast<std::uint32_t>(n_active);
    begin.c = static_cast<std::uint64_t>(drain_end);
    journal_.append(begin);
  }

  obs::emit(options_.trace, now, obs::TraceEventKind::kResizeBegin, n_old,
            n_active);
  obs::emit(options_.trace, now, obs::TraceEventKind::kEpochBump, -1, -1,
            epoch_);

  // Broadcast digests of every live old-mapping server (§IV-A). One
  // snapshot per server serves every ring: it covers the server's whole
  // content, whichever ring put each key there.
  std::vector<std::optional<bloom::BloomFilter>> digests(
      static_cast<std::size_t>(options_.max_servers));
  for (int i = 0; i < n_old; ++i) {
    if (!usable(i)) continue;
    auto snapshot = server(i).snapshot_digest();
    obs::emit(options_.trace, now, obs::TraceEventKind::kDigestSnapshot, i,
              -1, snapshot.words().size() * sizeof(std::uint64_t));
    if (journal_.is_open()) {
      core::JournalRecord rec;
      rec.kind = core::JournalRecordKind::kDigestSnapshot;
      rec.server = i;
      rec.payload = cache::encode_digest(snapshot);
      journal_.append(rec);
    }
    digests[static_cast<std::size_t>(i)] = std::move(snapshot);
  }

  // A crashed server stays off through the resize; recover_server brings
  // it back if it is still in the active set by then.
  for (int i = n_old; i < n_active; ++i) {
    if (failed_[static_cast<std::size_t>(i)]) continue;
    mutable_server(i).power_on();
    obs::emit(options_.trace, now, obs::TraceEventKind::kPowerOn, i);
  }
  for (int i = n_active; i < n_old; ++i) {
    if (failed_[static_cast<std::size_t>(i)]) continue;
    mutable_server(i).begin_draining();
    if (journal_.is_open()) {
      core::JournalRecord rec;
      rec.kind = core::JournalRecordKind::kDrainBegin;
      rec.server = i;
      journal_.append(rec);
    }
    obs::emit(options_.trace, now, obs::TraceEventKind::kDrainBegin, i);
  }

  router_.begin_transition(n_active, drain_end, std::move(digests));
}

void Proteus::fail_server(int i) {
  PROTEUS_CHECK(i >= 0 && i < options_.max_servers);
  if (failed_[static_cast<std::size_t>(i)]) return;
  failed_[static_cast<std::size_t>(i)] = true;
  // A crash loses the in-memory cache (§III-A), and with it whatever the
  // transition digest says about it: a recovered server rejoins cold.
  if (server(i).power_state() != cache::PowerState::kOff) {
    mutable_server(i).power_off();
  }
  router_.drop_old_digest(i);
}

void Proteus::recover_server(int i) {
  PROTEUS_CHECK(i >= 0 && i < options_.max_servers);
  if (!failed_[static_cast<std::size_t>(i)]) return;
  failed_[static_cast<std::size_t>(i)] = false;
  // Rejoin cold if the server is inside the active set.
  if (i < active_servers()) mutable_server(i).power_on();
}

int Proteus::powered_servers() const noexcept {
  int n = 0;
  for (const auto& s : servers_) {
    n += s->power_state() != cache::PowerState::kOff;
  }
  return n;
}

ring::TransitionPlan Proteus::plan_resize(int n_active) const {
  return ring::plan_transition(*placement_, active_servers(), n_active,
                               bytes_cached());
}

void Proteus::register_metrics(obs::MetricsRegistry& registry) const {
  const auto stat = [this, &registry](std::string name, std::string help,
                                      std::uint64_t ProteusStats::*field) {
    registry.counter_fn(std::move(name), std::move(help), [this, field] {
      return static_cast<double>(stats_.*field);
    });
  };
  stat("proteus_gets_total", "Algorithm 2 retrievals", &ProteusStats::gets);
  stat("proteus_new_server_hits_total", "hits on the current mapping",
       &ProteusStats::new_server_hits);
  stat("proteus_replica_ring_hits_total",
       "hits served by a SS III-E replica ring (failover)",
       &ProteusStats::replica_ring_hits);
  stat("proteus_failed_server_skips_total",
       "locations skipped: crashed or powered off",
       &ProteusStats::failed_server_skips);
  stat("proteus_old_server_hits_total",
       "on-demand migrations (Algorithm 2 line 12)",
       &ProteusStats::old_server_hits);
  stat("proteus_backend_fetches_total", "authoritative-store fetches",
       &ProteusStats::backend_fetches);
  stat("proteus_digest_false_positives_total",
       "digest said hot, old server missed (SS IV-B p_p bound)",
       &ProteusStats::digest_false_positives);
  stat("proteus_digest_false_negatives_total",
       "digest said cold, key was resident (SS IV-B p_n bound)",
       &ProteusStats::digest_false_negatives);
  stat("proteus_puts_total", "explicit writes", &ProteusStats::puts);
  stat("proteus_resizes_total", "provisioning transitions begun",
       &ProteusStats::resizes);
  stat("proteus_migrations_deferred_total",
       "line-12 write-backs deferred by the migration throttle",
       &ProteusStats::migrations_deferred);
  stat("proteus_journal_records_replayed_total",
       "transition-journal records replayed at startup",
       &ProteusStats::journal_records_replayed);
  stat("proteus_journal_transitions_resumed_total",
       "interrupted transitions resumed or rolled forward from the journal",
       &ProteusStats::journal_transitions_resumed);
  registry.gauge_fn("proteus_cluster_epoch",
                    "fencing epoch, bumped on every resize",
                    [this] { return static_cast<double>(epoch_); });
  registry.gauge_fn("proteus_hit_ratio", "cache-tier hit ratio",
                    [this] { return stats_.hit_ratio(); });
  registry.gauge_fn("proteus_active_servers", "servers in the current mapping",
                    [this] { return static_cast<double>(active_servers()); });
  registry.gauge_fn("proteus_powered_servers",
                    "servers not powered off (active + draining)",
                    [this] { return static_cast<double>(powered_servers()); });
  registry.gauge_fn("proteus_in_transition",
                    "1 while a SS IV smooth transition is in flight",
                    [this] { return in_transition() ? 1.0 : 0.0; });
  registry.gauge_fn("proteus_bytes_cached", "bytes resident fleet-wide",
                    [this] { return static_cast<double>(bytes_cached()); });
  // Per-server load/occupancy: the live check of the SS III K/n guarantee —
  // every active server's share of gets should track 1/n.
  for (int i = 0; i < options_.max_servers; ++i) {
    const std::string prefix = "proteus_server_" + std::to_string(i);
    registry.counter_fn(prefix + "_gets_total", "gets routed to this server",
                        [this, i]() -> double {
                          return static_cast<double>(server(i).stats().gets);
                        });
    registry.gauge_fn(prefix + "_hit_ratio", "per-server hit ratio",
                      [this, i] { return server(i).stats().hit_ratio(); });
    registry.gauge_fn(prefix + "_power_state", "0=active 1=draining 2=off",
                      [this, i] {
                        return static_cast<double>(server(i).power_state());
                      });
  }
}

std::size_t Proteus::bytes_cached() const noexcept {
  std::size_t total = 0;
  for (const auto& s : servers_) {
    if (s->power_state() != cache::PowerState::kOff) total += s->bytes_used();
  }
  return total;
}

}  // namespace proteus
