// Crash-recovery drills for the three fencing layers (docs/OPERATIONS.md
// §11): the durable transition journal (a coordinator crash mid-resize must
// resume or roll forward, never silently lose the plan), epoch fencing on
// the wire (a web tier routing on a stale view must have its mutations
// refused, with zero stale acks), and restart-aware digests (a daemon that
// cold-restarts must be recognized by its new incarnation so its dead
// digest stops attracting phantom old-location probes). The live-fleet
// cases are the chaos half: daemons killed and cold-restarted under a
// running ProteusClient, which must converge back to correct K/n serving
// with bounded tail latency.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "common/hash.h"
#include "core/proteus.h"
#include "core/transition_journal.h"
#include "hashring/proteus_placement.h"
#include "net/memcache_daemon.h"

namespace proteus {
namespace {

std::string backend_of(std::string_view key) {
  return "db:" + std::string(key);
}

std::string journal_path_for(const char* name) {
  const std::string path =
      ::testing::TempDir() + "proteus_journal_" + name + ".wal";
  std::remove(path.c_str());
  return path;
}

ProteusOptions journaled_options(const std::string& path) {
  ProteusOptions opt;
  opt.max_servers = 4;
  opt.per_server.memory_budget_bytes = 4 << 20;
  opt.ttl = 60 * kSecond;
  opt.journal_path = path;
  return opt;
}

// --- layer 2: the durable journal ------------------------------------------

TEST(TransitionJournalTest, ResumesInterruptedTransitionAfterCrash) {
  const std::string path =
      journal_path_for("ResumesInterruptedTransitionAfterCrash");
  const ProteusOptions opt = journaled_options(path);

  // A coordinator starts a shrink and "crashes" (is destroyed) mid-drain.
  {
    Proteus a(opt, backend_of);
    for (int i = 0; i < 200; ++i) a.get("key:" + std::to_string(i), 0);
    a.resize(2, kSecond);
    ASSERT_TRUE(a.in_transition());
    ASSERT_EQ(a.cluster_epoch(), 1u);
    ASSERT_GT(a.journal().appended(), 0u);
  }

  // The restarted coordinator replays the journal: same epoch, same
  // transition, still draining — the plan survived the crash.
  Proteus b(opt, backend_of);
  EXPECT_GT(b.stats().journal_records_replayed, 0u);
  EXPECT_EQ(b.stats().journal_transitions_resumed, 1u);
  EXPECT_TRUE(b.in_transition());
  EXPECT_EQ(b.cluster_epoch(), 1u);
  EXPECT_EQ(b.active_servers(), 2);

  // Serving stays correct throughout (cache contents died with the old
  // process, so everything refills — but never with a wrong value).
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key:" + std::to_string(i);
    EXPECT_EQ(b.get(key, 2 * kSecond), backend_of(key));
  }

  // Past the replayed drain deadline the resumed transition finalizes.
  b.get("key:0", kSecond + opt.ttl + kSecond);
  EXPECT_FALSE(b.in_transition());
  EXPECT_EQ(b.powered_servers(), 2);
  EXPECT_EQ(b.cluster_epoch(), 1u);

  // Finalize compacted the journal: a third incarnation restores the epoch
  // from the kFinalize record but has no transition to resume.
  Proteus c(opt, backend_of);
  EXPECT_EQ(c.stats().journal_transitions_resumed, 0u);
  EXPECT_FALSE(c.in_transition());
  EXPECT_EQ(c.cluster_epoch(), 1u);
}

TEST(TransitionJournalTest, RollsForwardWhenCrashOutlivedDrainWindow) {
  const std::string path =
      journal_path_for("RollsForwardWhenCrashOutlivedDrainWindow");
  ProteusOptions opt = journaled_options(path);
  opt.ttl = 5 * kSecond;

  {
    Proteus a(opt, backend_of);
    a.get("key:0", 0);
    a.resize(2, kSecond);  // drain window ends at 6s
    ASSERT_TRUE(a.in_transition());
  }

  // The replacement comes up long after the drain deadline: the replay
  // re-enters the transition and the first tick rolls it forward.
  Proteus b(opt, backend_of);
  EXPECT_EQ(b.stats().journal_transitions_resumed, 1u);
  b.tick(60 * kSecond);
  EXPECT_FALSE(b.in_transition());
  EXPECT_EQ(b.powered_servers(), 2);
  EXPECT_EQ(b.cluster_epoch(), 1u);
}

TEST(TransitionJournalTest, ReplicatedFacadeResumesFromJournal) {
  const std::string path = journal_path_for("ReplicatedFacadeResumes");
  ProteusOptions opt;
  opt.max_servers = 4;
  opt.replicas = 2;
  opt.per_server.memory_budget_bytes = 4 << 20;
  opt.ttl = 60 * kSecond;
  opt.journal_path = path;

  {
    Proteus a(opt, backend_of);
    for (int i = 0; i < 50; ++i) a.get("key:" + std::to_string(i), 0);
    a.resize(2, kSecond);
    ASSERT_TRUE(a.in_transition());
  }

  Proteus b(opt, backend_of);
  EXPECT_TRUE(b.in_transition());
  EXPECT_EQ(b.cluster_epoch(), 1u);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key:" + std::to_string(i);
    EXPECT_EQ(b.get(key, 2 * kSecond), backend_of(key));
  }
  b.tick(kSecond + opt.ttl + kSecond);
  EXPECT_FALSE(b.in_transition());
}

TEST(TransitionJournalTest, TornTailIsDetectedTruncatedAndAppendable) {
  const std::string path = journal_path_for("TornTail");

  core::JournalRecord begin;
  begin.kind = core::JournalRecordKind::kResizeBegin;
  begin.a = 7;                                // epoch
  begin.b = (std::uint64_t{3} << 32) | 2;     // 3 -> 2
  begin.c = 123 * kSecond;                    // drain end
  core::JournalRecord drain;
  drain.kind = core::JournalRecordKind::kDrainBegin;
  drain.server = 2;

  // A crash mid-append leaves a torn tail: one intact record followed by
  // the first half of the next one.
  const std::string intact = core::encode_journal_record(begin);
  const std::string torn = core::encode_journal_record(drain);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(intact.data(), static_cast<std::streamsize>(intact.size()));
    out.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }

  core::TransitionJournal j;
  std::vector<core::JournalRecord> replayed;
  ASSERT_TRUE(j.open(path, replayed));
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].kind, core::JournalRecordKind::kResizeBegin);
  EXPECT_EQ(replayed[0].a, 7u);
  EXPECT_EQ(replayed[0].b, (std::uint64_t{3} << 32) | 2);
  EXPECT_GE(j.torn_records(), 1u);

  // The tail was truncated, so appending resumes from the last durable
  // record — a reopen sees exactly [begin, drain] and no torn bytes.
  j.append(drain);
  j.close();
  core::TransitionJournal j2;
  std::vector<core::JournalRecord> replayed2;
  ASSERT_TRUE(j2.open(path, replayed2));
  ASSERT_EQ(replayed2.size(), 2u);
  EXPECT_EQ(replayed2[1].kind, core::JournalRecordKind::kDrainBegin);
  EXPECT_EQ(replayed2[1].server, 2);
  EXPECT_EQ(j2.torn_records(), 0u);
}

TEST(TransitionJournalTest, CorruptRecordIsDroppedNotReplayed) {
  const std::string path = journal_path_for("CorruptRecord");

  core::JournalRecord begin;
  begin.kind = core::JournalRecordKind::kResizeBegin;
  begin.a = 1;
  core::JournalRecord snap;
  snap.kind = core::JournalRecordKind::kDigestSnapshot;
  snap.server = 0;
  snap.payload = "digest-bytes-digest-bytes";

  std::string bytes = core::encode_journal_record(begin);
  std::string bad = core::encode_journal_record(snap);
  bad[bad.size() / 2] ^= 0x5a;  // flip one byte: the CRC must catch it
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  }

  core::TransitionJournal j;
  std::vector<core::JournalRecord> replayed;
  ASSERT_TRUE(j.open(path, replayed));
  ASSERT_EQ(replayed.size(), 1u) << "the CRC-failing record must be dropped";
  EXPECT_GE(j.torn_records(), 1u);
}

TEST(TransitionJournalTest, InterpretFindsPendingTransitionAndTailEpoch) {
  std::vector<core::JournalRecord> records;
  core::JournalRecord r;
  r.kind = core::JournalRecordKind::kResizeBegin;
  r.a = 1;
  r.b = (std::uint64_t{4} << 32) | 2;
  r.c = 10 * kSecond;
  records.push_back(r);
  r = {};
  r.kind = core::JournalRecordKind::kFinalize;
  r.a = 1;
  records.push_back(r);
  r = {};
  r.kind = core::JournalRecordKind::kResizeBegin;
  r.a = 2;
  r.b = (std::uint64_t{2} << 32) | 3;
  r.c = 20 * kSecond;
  records.push_back(r);
  r = {};
  r.kind = core::JournalRecordKind::kDrainBegin;
  r.server = 3;
  records.push_back(r);

  std::uint64_t epoch = 0;
  const auto pending = core::interpret_journal(records, epoch);
  EXPECT_EQ(epoch, 2u);
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->epoch, 2u);
  EXPECT_EQ(pending->n_old, 2);
  EXPECT_EQ(pending->n_new, 3);
  EXPECT_EQ(pending->drain_end, 20 * kSecond);

  r = {};
  r.kind = core::JournalRecordKind::kFinalize;
  r.a = 2;
  records.push_back(r);
  epoch = 0;
  EXPECT_FALSE(core::interpret_journal(records, epoch).has_value());
  EXPECT_EQ(epoch, 2u);
}

}  // namespace
}  // namespace proteus

// --- layers 1 and 3: epoch fencing + incarnations on the live wire ---------

namespace proteus::client {
namespace {

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

class LiveFleet : public ::testing::Test {
 protected:
  static constexpr int kServers = 3;

  void SetUp() override {
    daemons_.resize(kServers);
    threads_.resize(kServers);
    ports_.resize(kServers);
    for (int i = 0; i < kServers; ++i) start(i, /*port=*/0);
  }

  void TearDown() override {
    for (int i = 0; i < kServers; ++i) kill(i);
  }

  void start(int i, std::uint16_t port) {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 8 << 20;
    auto& d = daemons_[static_cast<std::size_t>(i)];
    d = std::make_unique<net::MemcacheDaemon>(cfg, port);
    ASSERT_TRUE(d->ok());
    ports_[static_cast<std::size_t>(i)] = d->port();
    threads_[static_cast<std::size_t>(i)] =
        std::thread([daemon = d.get()] { daemon->run(); });
  }

  void kill(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (!d) return;
    d->stop();
    threads_[static_cast<std::size_t>(i)].join();
    d.reset();
  }

  // Cold restart on the same port: fresh process state — new incarnation,
  // empty memory, digest and epoch gone. The kill -9 analogue.
  void restart(int i) { start(i, ports_[static_cast<std::size_t>(i)]); }

  ProteusClient::Options fast_options() {
    ProteusClient::Options opt;
    opt.endpoints = ports_;
    opt.ttl = 60 * kSecond;
    opt.connect_timeout = 200 * kMillisecond;
    opt.op_timeout = 200 * kMillisecond;
    opt.max_attempts = 2;
    opt.health.error_threshold = 3;
    opt.health.quarantine_base = 500 * kMillisecond;
    opt.health.quarantine_cap = 5 * kSecond;
    // Error-driven health only: exact hit/miss assertions must not move
    // with wall-clock scheduling jitter on a loaded CI core.
    opt.health.min_deviation_usec = 1e9;
    return opt;
  }

  // The ring-0 primary of `key` with `n` of kServers active.
  static int primary_of(std::string_view key, int n = kServers) {
    const ring::ProteusPlacement placement(kServers);
    return placement.server_for(hash_bytes(key), n);
  }

  // Raw get against one daemon, bypassing routing — the ground truth of
  // what a daemon actually acknowledged and stored.
  std::optional<std::string> raw_get(int i, std::string_view key) {
    MemcacheConnection conn(ports_[static_cast<std::size_t>(i)]);
    return conn.get(key);
  }

  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::thread> threads_;
};

TEST_F(LiveFleet, StaleEpochMutationsAreFencedWithZeroAcks) {
  std::uint64_t backend = 0;
  const auto db = [&](std::string_view key) {
    ++backend;
    return backend_of(key);
  };

  // Client A actuates a resize, establishing epoch 1 fleet-wide.
  ProteusClient a(fast_options(), db);
  for (int i = 0; i < 30; ++i) a.get("seed:" + std::to_string(i), 0);
  ASSERT_TRUE(a.resize(2, kSecond));
  ASSERT_EQ(a.cluster_epoch(), 1u);
  EXPECT_GE(a.stats().epoch_pushes, 3u) << "resize must teach every daemon";

  // Client B connects to every daemon and adopts epoch 1 via the hello.
  ProteusClient b(fast_options(), db);
  for (int i = 0; i < 30; ++i) b.get("seed:" + std::to_string(i), 2 * kSecond);
  ASSERT_EQ(b.cluster_epoch(), 1u) << "hello must sync the fencing epoch";

  // Pin a connection to the victim key's primary while the fleet still
  // fences epoch 1: this write passes, and is the value that must survive
  // the stale write below.
  b.put("fence:victim", "warm-write", 2 * kSecond + kSecond / 2);
  ASSERT_EQ(raw_get(primary_of("fence:victim"), "fence:victim"),
            std::optional<std::string>("warm-write"));

  // A third party (another web tier we never see) moves the fleet to epoch
  // 2 behind B's back. B's established connections now route on a stale
  // view.
  for (int i = 0; i < kServers; ++i) {
    MemcacheConnection conn(ports_[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(conn.push_epoch(2));
  }

  // B's next mutation is stamped E1 and must be refused — and crucially,
  // must NOT be acknowledged or stored by any daemon.
  b.put("fence:victim", "stale-write", 3 * kSecond);
  EXPECT_GE(b.stats().stale_epoch_rejects, 1u);
  for (int i = 0; i < kServers; ++i) {
    const auto stored = raw_get(i, "fence:victim");
    EXPECT_TRUE(!stored.has_value() || *stored != "stale-write")
        << "daemon " << i << " acknowledged a stale-epoch mutation";
  }

  // The daemon-side fencing counter confirms the reject happened there.
  {
    std::uint64_t fleet_rejects = 0;
    for (int i = 0; i < kServers; ++i) {
      MemcacheConnection c(ports_[static_cast<std::size_t>(i)]);
      const auto pairs = c.stats();
      ASSERT_TRUE(pairs.has_value());
      for (const auto& [name, value] : *pairs) {
        if (name == "stale_epoch_rejects") {
          fleet_rejects += std::strtoull(value.c_str(), nullptr, 10);
        }
      }
    }
    EXPECT_GE(fleet_rejects, 1u);
  }

  // The fence taught B the newer epoch; the retried write goes through and
  // this time IS durable on the primary.
  EXPECT_EQ(b.cluster_epoch(), 2u) << "a fence must refresh the view";
  b.put("fence:victim", "fresh-write", 4 * kSecond);
  EXPECT_EQ(raw_get(primary_of("fence:victim"), "fence:victim"),
            std::optional<std::string>("fresh-write"));

  // Fencing is no-retry and no-penalty: the rejected mutation must not
  // have quarantined endpoints or burned retry attempts.
  EXPECT_EQ(b.stats().retries, 0u);
  EXPECT_EQ(b.stats().breaker_open_skips, 0u);
}

// Fills are noreply, so a fenced fill is refused without a word; the
// connection's next get carries the refusal and teaches the newer epoch.
TEST_F(LiveFleet, FencedFillTeachesTheEpochOnTheNextGet) {
  std::uint64_t backend = 0;
  const auto db = [&](std::string_view key) {
    ++backend;
    return backend_of(key);
  };
  ProteusClient a(fast_options(), db);
  ASSERT_TRUE(a.resize(2, 0));  // epoch 1, fleet-wide
  ProteusClient b(fast_options(), db);  // routes on all three servers
  const std::string warm = "fence:warm";
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string k = "fence:" + std::to_string(i);
    if (primary_of(k) == primary_of(warm)) key = k;
  }
  // B's connection to the primary is open, and its hello synced epoch 1.
  ASSERT_EQ(b.get(warm, 0), backend_of(warm));
  ASSERT_EQ(b.cluster_epoch(), 1u);
  // The warm fill is corked until B's next request on that connection; one
  // more round trip there (a hit) lands it before the epoch moves on.
  ASSERT_EQ(b.get(warm, 0), backend_of(warm));
  ASSERT_EQ(backend, 1u);
  for (int i = 0; i < kServers; ++i) {
    MemcacheConnection conn(ports_[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(conn.push_epoch(2));
  }

  ASSERT_EQ(b.get(key, kSecond), backend_of(key));  // its E1 fill is fenced
  EXPECT_EQ(b.cluster_epoch(), 1u);
  EXPECT_EQ(b.stats().stale_epoch_rejects, 0u);
  // The next get reads the refusal as a miss, adopts epoch 2 and refills.
  ASSERT_EQ(b.get(key, kSecond), backend_of(key));
  EXPECT_EQ(b.cluster_epoch(), 2u);
  EXPECT_EQ(b.stats().stale_epoch_rejects, 1u);
  EXPECT_EQ(backend, 3u);
  // That refill carried epoch 2 and was stored.
  ASSERT_EQ(b.get(key, kSecond), backend_of(key));
  EXPECT_EQ(backend, 3u);
  EXPECT_EQ(b.stats().new_server_hits, 2u);  // the warm re-get and this get
  EXPECT_EQ(b.stats().retries, 0u);
  EXPECT_EQ(b.stats().breaker_open_skips, 0u);
}

TEST_F(LiveFleet, ColdRestartDropsDeadDigestInsteadOfPhantomProbes) {
  std::uint64_t backend = 0;
  ProteusClient web(fast_options(), [&](std::string_view key) {
    ++backend;
    return backend_of(key);
  });
  for (int i = 0; i < 150; ++i) web.get("page:" + std::to_string(i), 0);
  ASSERT_EQ(backend, 150u);

  // Shrink 3 -> 2: server 2's keys move; its digest is what routes their
  // first post-resize reads to the old location.
  ASSERT_TRUE(web.resize(2, kSecond));
  ASSERT_TRUE(web.in_transition());

  std::vector<std::string> moved;
  for (int i = 0; i < 150; ++i) {
    const std::string key = "page:" + std::to_string(i);
    if (primary_of(key, 3) == 2) moved.push_back(key);
  }
  ASSERT_GE(moved.size(), 20u) << "placement should move ~1/3 of the keys";

  // Pre-crash sanity: the digest is live, so a moved key is served from
  // its old location (Algorithm 2 on-demand migration).
  EXPECT_EQ(web.get(moved[0], 2 * kSecond), backend_of(moved[0]));
  EXPECT_GE(web.stats().old_server_hits, 1u);

  // kill -9 analogue: server 2 cold-restarts. Its memory — and everything
  // the snapshot digest describes — is gone; only the incarnation betrays
  // it.
  kill(2);
  restart(2);

  // The first moved-key read reconnects, sees the new incarnation, and
  // drops the dead digest.
  EXPECT_EQ(web.get(moved[1], 3 * kSecond), backend_of(moved[1]));
  EXPECT_GE(web.stats().incarnation_changes, 1u)
      << "reconnect must detect the cold restart";

  // From here on the dropped digest must stop attracting old-location
  // probes: every further moved key goes straight to the backend with no
  // phantom false-positive probe against the empty restarted server.
  const std::uint64_t fp_before = web.stats().digest_false_positives;
  const std::uint64_t old_hits_before = web.stats().old_server_hits;
  for (std::size_t i = 2; i < moved.size() && i < 22; ++i) {
    EXPECT_EQ(web.get(moved[i], 4 * kSecond), backend_of(moved[i]));
  }
  EXPECT_EQ(web.stats().digest_false_positives, fp_before)
      << "dropped digest must not keep sending probes to the cold server";
  EXPECT_EQ(web.stats().old_server_hits, old_hits_before)
      << "an empty restarted server can hold no old-location hits";
}

TEST_F(LiveFleet, KillMidResizeFleetConvergesWithBoundedTail) {
  std::uint64_t backend = 0;
  ProteusClient web(fast_options(), [&](std::string_view key) {
    ++backend;
    return backend_of(key);
  });
  for (int i = 0; i < 150; ++i) web.get("page:" + std::to_string(i), 0);
  ASSERT_EQ(backend, 150u);

  // Chaos: a surviving-set server dies, THEN the shrink 3 -> 2 runs. Its
  // digest is skipped but the transition (and the epoch bump) completes.
  kill(1);
  EXPECT_FALSE(web.resize(2, kSecond));
  EXPECT_TRUE(web.in_transition());
  EXPECT_GE(web.stats().digest_skips, 1u);
  EXPECT_EQ(web.cluster_epoch(), 1u);

  // The dead server cold-restarts (empty, incarnation changed) and the
  // fleet keeps serving through the whole episode: every key correct, no
  // get blocked meaningfully past its deadline budget.
  restart(1);
  std::int64_t worst_ms = 0;
  for (int i = 0; i < 150; ++i) {
    const std::string key = "page:" + std::to_string(i);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(web.get(key, 2 * kSecond), backend_of(key));
    worst_ms = std::max(worst_ms, elapsed_ms(start));
  }
  EXPECT_LT(worst_ms, 2000) << "a get blocked far past its deadline";

  // Convergence: past the drain window the transition finalizes and a full
  // pass serves everything from the two-server fleet.
  for (int i = 0; i < 150; ++i) {
    const std::string key = "page:" + std::to_string(i);
    EXPECT_EQ(web.get(key, 100 * kSecond), backend_of(key));
  }
  EXPECT_FALSE(web.in_transition());

  // §III K/n balance after recovery: every key is resident on exactly one
  // of the two active servers, in near-equal shares (Algorithm 1's exact
  // balance, within the tolerance hash placement allows on 150 keys).
  const std::size_t items0 = daemons_[0]->item_count();
  const std::size_t items1 = daemons_[1]->item_count();
  EXPECT_GE(items0 + items1, 150u * 95 / 100);
  EXPECT_LE(items0 + items1, 150u + 5);
  EXPECT_GE(items0, 150u * 30 / 100) << "share far below K/n after recovery";
  EXPECT_GE(items1, 150u * 30 / 100) << "share far below K/n after recovery";

  // Bounded tail, measured programmatically over every get of the episode
  // (fill, chaos pass, convergence pass): p99.9 stays within the
  // deadline-derived budget instead of hanging on the crashed server.
  EXPECT_LT(web.get_latency_snapshot().quantile(0.999), 2'000'000.0)
      << "p99.9 end-to-end get latency (us) must stay bounded";
}

}  // namespace
}  // namespace proteus::client
