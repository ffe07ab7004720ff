// Randomized invariant tests ("fuzz-lite"): deterministic seeds, thousands
// of random operations, invariants checked after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cache/text_protocol.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/proteus.h"
#include "obs/span.h"

namespace proteus {
namespace {

// Feeds `wire` in random chunks of 1..max_chunk bytes, drawn from
// `chunk_seed`, and returns the concatenated replies.
template <typename Session>
std::string feed_chunked(Session& session, std::string_view wire,
                         std::uint64_t chunk_seed, std::size_t max_chunk) {
  std::string out;
  Rng chunk_rng(chunk_seed);
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t n = std::min<std::size_t>(
        wire.size() - pos, 1 + chunk_rng.next_below(max_chunk));
    out += session.feed(wire.substr(pos, n), 0);
    pos += n;
  }
  return out;
}

cache::CacheConfig small_cache() {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  return cfg;
}

// The text suites run over a 1-shard and a 4-shard engine: a seed and a
// shard count per instance.
using SeedAndShards = std::tuple<std::uint64_t, int>;
const auto kShardCounts = ::testing::Values(1, 4);

// --- protocol: responses must not depend on TCP segmentation ---------------

class ProtocolSegmentation : public ::testing::TestWithParam<SeedAndShards> {};

// A random but valid command script: sets, gets, multi-gets, deletes and
// stats over 40 keys.
std::string segmentation_script(std::uint64_t seed) {
  Rng rng(seed);
  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    switch (rng.next_below(5)) {
      case 0: {
        const auto len = static_cast<std::size_t>(rng.next_below(64));
        std::string payload;
        for (std::size_t b = 0; b < len; ++b) {
          payload += static_cast<char>('a' + rng.next_below(26));
        }
        wire += "set " + key + " " + std::to_string(rng.next_below(100)) +
                " 0 " + std::to_string(len) + "\r\n" + payload + "\r\n";
        break;
      }
      case 1: wire += "get " + key + "\r\n"; break;
      case 2: wire += "delete " + key + "\r\n"; break;
      case 3: wire += "get " + key + " other\r\n"; break;
      case 4: wire += "stats\r\n"; break;
    }
  }
  return wire;
}

TEST_P(ProtocolSegmentation, ResponseInvariantUnderChunking) {
  const auto [seed, shards] = GetParam();
  const std::string wire = segmentation_script(seed);

  const auto run_chunked = [&](std::size_t max_chunk) {
    cache::ShardedCacheServer engine(small_cache(), shards);
    cache::TextProtocolSession session(engine);
    return feed_chunked(session, wire, seed ^ max_chunk, max_chunk);
  };

  const std::string whole = run_chunked(wire.size());
  EXPECT_EQ(run_chunked(1), whole);    // byte-at-a-time
  EXPECT_EQ(run_chunked(7), whole);    // odd small chunks
  EXPECT_EQ(run_chunked(1024), whole); // mixed large chunks
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProtocolSegmentation,
    ::testing::Combine(::testing::Values(1ull, 17ull, 3333ull, 98765ull),
                       kShardCounts));

// --- sharding: a 4-shard engine is reply-invariant vs a 1-shard one ---------
//
// Same random script, same chunkings, two engines: 1 shard and 4 shards.
// Lock striping is an implementation detail — every reply byte, `stats`
// output included, must be identical.

class ShardReplyInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardReplyInvariance, FourShardEngineMatchesOneShardReplies) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    switch (rng.next_below(6)) {
      case 0: {
        const auto len = static_cast<std::size_t>(rng.next_below(64));
        std::string payload;
        for (std::size_t b = 0; b < len; ++b) {
          payload += static_cast<char>('a' + rng.next_below(26));
        }
        wire += "set " + key + " " + std::to_string(rng.next_below(100)) +
                " 0 " + std::to_string(len) + "\r\n" + payload + "\r\n";
        break;
      }
      case 1: wire += "get " + key + "\r\n"; break;
      case 2: wire += "delete " + key + "\r\n"; break;
      case 3: wire += "get " + key + " other\r\n"; break;
      case 4: wire += "stats\r\n"; break;
      case 5: wire += "incr " + key + " 1\r\n"; break;
    }
  }

  const auto run = [&](int shards, std::size_t max_chunk) {
    cache::ShardedCacheServer engine(small_cache(), shards);
    cache::TextProtocolSession session(engine);
    return feed_chunked(session, wire, seed ^ max_chunk, max_chunk);
  };

  const std::string one_shard = run(1, wire.size());
  EXPECT_EQ(run(4, wire.size()), one_shard);
  EXPECT_EQ(run(4, 1), one_shard);
  EXPECT_EQ(run(4, 7), one_shard);
  EXPECT_EQ(run(4, 1024), one_shard);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardReplyInvariance,
                         ::testing::Values(1ull, 17ull, 3333ull, 98765ull));

// --- facade: random op/resize interleavings never serve stale data ----------

class FacadeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FacadeFuzz, NeverServesStaleDataAcrossRandomResizes) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  ProteusOptions opt;
  opt.max_servers = 8;
  opt.per_server.memory_budget_bytes = 32 << 20;  // no capacity evictions
  opt.per_server.digest.num_counters = 1 << 14;
  opt.per_server.digest.counter_bits = 4;
  opt.per_server.digest.num_hashes = 4;
  opt.ttl = 2 * kSecond;

  // The model: authoritative key -> latest value. The backend serves the
  // model's current value (as a database would).
  std::map<std::string, std::string> model;
  std::uint64_t version = 0;
  Proteus cluster(opt, [&](std::string_view key) {
    auto it = model.find(std::string(key));
    return it != model.end() ? it->second : "default:" + std::string(key);
  });

  SimTime now = 0;
  for (int op = 0; op < 8000; ++op) {
    now += from_seconds(0.01 + rng.next_double() * 0.05);
    const std::string key = "k" + std::to_string(rng.next_below(120));
    const auto action = rng.next_below(100);
    if (action < 55) {
      // GET must return the model value (or the default if never put).
      const std::string got = cluster.get(key, now);
      const auto it = model.find(key);
      const std::string expected =
          it != model.end() ? it->second : "default:" + key;
      ASSERT_EQ(got, expected) << "stale read of " << key << " at op " << op;
    } else if (action < 80) {
      // PUT through the cluster updates cache AND the backing model (write
      // through), so future reads must observe it.
      const std::string value = "v" + std::to_string(++version);
      model[key] = value;
      cluster.put(key, value, now);
    } else if (action < 90) {
      cluster.erase(key, now);
      // After erase the next read refetches from the model — still fresh.
    } else {
      cluster.resize(1 + static_cast<int>(rng.next_below(8)), now);
    }
  }
  // Sanity: the run exercised both mechanisms.
  EXPECT_GT(cluster.stats().resizes, 100u);
  EXPECT_GT(cluster.stats().old_server_hits, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FacadeFuzz,
                         ::testing::Values(2ull, 42ull, 777ull, 123456ull));

// --- overload: the pipeline shed path must never desync the stream -----------

class ShedPathFuzz : public ::testing::TestWithParam<SeedAndShards> {};

TEST_P(ShedPathFuzz, PipelineShedKeepsProtocolSyncUnderChunking) {
  const auto [seed, shards] = GetParam();
  Rng rng(seed);

  // Random valid script, heavy on storage commands: a shed set must still
  // consume its data block or the payload replays as commands.
  std::string wire;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const auto len = static_cast<std::size_t>(rng.next_below(64));
        std::string payload;
        for (std::size_t b = 0; b < len; ++b) {
          payload += static_cast<char>('a' + rng.next_below(26));
        }
        wire += "set " + key + " 0 0 " + std::to_string(len) + "\r\n" +
                payload + "\r\n";
        break;
      }
      case 2: wire += "get " + key + "\r\n"; break;
      case 3: wire += "delete " + key + " noreply\r\n"; break;
    }
  }

  for (const int cap : {1, 2, 5}) {
    for (const std::size_t max_chunk : {std::size_t{1}, std::size_t{9},
                                        std::size_t{4096}}) {
      cache::ShardedCacheServer engine(small_cache(), shards);
      std::atomic<std::uint64_t> sheds{0};
      cache::TextProtocolSession session(engine, nullptr, nullptr, -1,
                                         cache::PipelinePolicy{cap, &sheds});
      feed_chunked(session, wire,
                   seed ^ max_chunk ^ static_cast<std::uint64_t>(cap),
                   max_chunk);
      // However many commands were shed along the way, the session must
      // still be in perfect protocol sync: a fresh single-command batch
      // (within any cap >= 1) round-trips exactly.
      ASSERT_FALSE(session.closed());
      EXPECT_EQ(session.feed("set canary 0 0 2\r\nok\r\n", 0), "STORED\r\n");
      EXPECT_EQ(session.feed("get canary\r\n", 0),
                "VALUE canary 0 2\r\nok\r\nEND\r\n");
      if (cap == 1 && max_chunk == 4096) {
        EXPECT_GT(sheds.load(), 0u)
            << "big batches under cap 1 must actually exercise the shed path";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ShedPathFuzz,
    ::testing::Combine(::testing::Values(5ull, 21ull, 909ull, 424242ull),
                       kShardCounts));

// --- trace-token decoder: arbitrary bytes, exact-shape acceptance ------------

TEST(TraceTokenDecodeFuzz, ArbitraryStringsMatchTheShapeCheck) {
  // The decoder must accept EXACTLY "O" + 16 lowercase hex digits and
  // nothing else — cross-checked against an independent shape predicate on
  // 20k random strings drawn from a hostile charset.
  const std::string charset = "0123456789abcdefABCDEFOXo \t\r\n\\\"{}";
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    const std::size_t len = rng.next_below(24);
    for (std::size_t b = 0; b < len; ++b) {
      s += charset[rng.next_below(charset.size())];
    }
    if (rng.next_below(4) == 0 && !s.empty()) s[0] = 'O';  // bias the prefix
    bool shape = s.size() == 17 && s[0] == 'O';
    if (shape) {
      for (std::size_t b = 1; b < s.size(); ++b) {
        const char c = s[b];
        shape &= (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      }
    }
    std::uint64_t out = 0;
    EXPECT_EQ(obs::decode_trace_token(s, out), shape) << "input: " << s;
  }
  // And the codec round-trips random ids.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = rng.next_u64() | 1;  // nonzero
    std::uint64_t back = 0;
    ASSERT_TRUE(obs::decode_trace_token(obs::encode_trace_token(id), back));
    EXPECT_EQ(back, id);
  }
}

// --- text protocol: O-tokens are invisible to the reply stream ---------------

class TraceTokenProtocolFuzz
    : public ::testing::TestWithParam<SeedAndShards> {};

TEST_P(TraceTokenProtocolFuzz, TokenedScriptMatchesUntokenedReplies) {
  const auto [seed, shards] = GetParam();
  Rng rng(seed);

  // Invalid token-like strings: stock keys to our parser (and to stock
  // memcached), so appending one to a `get` must not change the reply.
  const std::string invalid[] = {
      "O123", "Oscar", "O00000000DEADBEEF", "X0000000000000001",
      "O000000000000000g", "O00000000000000012",
  };

  // Two scripts built in lockstep: `tokened` carries trace tokens,
  // `reference` is the protocol-equivalent without valid tokens (invalid
  // ones stay — they are ordinary never-stored keys). Their reply streams
  // must be byte-identical, and the tokened session must record server
  // spans for exactly the valid ids.
  std::string tokened, reference;
  std::set<std::uint64_t> expected_ids;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(40));
    std::string tok;       // appended to the tokened script only
    std::string keep_tok;  // appended to BOTH (invalid -> plain key)
    const auto choice = rng.next_below(3);
    if (choice == 0) {
      const std::uint64_t id = rng.next_u64() | 1;
      tok = " " + obs::encode_trace_token(id);
      expected_ids.insert(id);
    } else if (choice == 1) {
      keep_tok = " " + invalid[rng.next_below(std::size(invalid))];
    }
    switch (rng.next_below(5)) {
      case 0: {
        const auto len = static_cast<std::size_t>(rng.next_below(32));
        const std::string payload(len, 'x');
        const std::string head = "set " + key + " 0 0 " +
                                 std::to_string(len);
        // Invalid tokens would change `set` arity on a stock parser, so
        // only valid (strippable) tokens ride storage commands.
        tokened += head + tok + "\r\n" + payload + "\r\n";
        reference += head + "\r\n" + payload + "\r\n";
        break;
      }
      case 4: {
        // A client fill: `noreply`, then its C and E tokens (one epoch
        // throughout, so none is stale) and sometimes `bg`.
        const auto len = static_cast<std::size_t>(rng.next_below(32));
        const std::string payload(len, 'y');
        const std::string head =
            "set " + key + " 0 0 " + std::to_string(len) + " noreply";
        const std::string bg = rng.next_below(2) == 0 ? " bg" : "";
        tokened += head + " " + obs::encode_checksum_token(crc32c(payload)) +
                   " " + obs::encode_epoch_token(1) + tok + bg + "\r\n" +
                   payload + "\r\n";
        reference += head + "\r\n" + payload + "\r\n";
        break;
      }
      case 1:
        tokened += "get " + key + tok + keep_tok + "\r\n";
        reference += "get " + key + keep_tok + "\r\n";
        break;
      case 2:
        tokened += "gets " + key + tok + keep_tok + "\r\n";
        reference += "gets " + key + keep_tok + "\r\n";
        break;
      case 3:
        tokened += "delete " + key + tok + "\r\n";
        reference += "delete " + key + "\r\n";
        break;
    }
  }

  const auto run = [&](const std::string& wire, obs::SpanCollector* spans,
                       std::size_t max_chunk) {
    cache::ShardedCacheServer engine(small_cache(), shards);
    cache::TextProtocolSession session(engine, nullptr, spans,
                                       /*server_id=*/3);
    return feed_chunked(session, wire, seed ^ max_chunk, max_chunk);
  };

  obs::SpanCollector spans(1u << 14, /*sample_every=*/1);
  const std::string tokened_out = run(tokened, &spans, tokened.size());
  EXPECT_EQ(tokened_out, run(reference, nullptr, reference.size()));
  // Token stripping must survive TCP segmentation too.
  EXPECT_EQ(run(tokened, nullptr, 1), tokened_out);
  EXPECT_EQ(run(tokened, nullptr, 7), tokened_out);

  std::set<std::uint64_t> seen_ids;
  for (const obs::SpanRecord& s : spans.snapshot()) {
    EXPECT_EQ(s.server, 3);
    seen_ids.insert(s.trace_id);
  }
  EXPECT_EQ(seen_ids, expected_ids)
      << "server spans must appear for exactly the valid trace tokens";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TraceTokenProtocolFuzz,
    ::testing::Combine(::testing::Values(5ull, 404ull, 31337ull),
                       kShardCounts));

// --- meta tokens: O (trace), E (epoch), C (checksum) combine in ANY order ----

class MetaTokenPermutations : public ::testing::TestWithParam<int> {};

TEST_P(MetaTokenPermutations, GetAcceptsEveryTokenOrder) {
  cache::ShardedCacheServer engine(small_cache(), GetParam());
  cache::TextProtocolSession session(engine);

  const std::string value = "integrity-checked-payload";
  const std::string crc_tok = obs::encode_checksum_token(crc32c(value));
  ASSERT_EQ(session.feed("set pk 5 0 " + std::to_string(value.size()) + " " +
                             crc_tok + "\r\n" + value + "\r\n",
                         0),
            "STORED\r\n");

  const std::string o = obs::encode_trace_token(0x1234abcd5678ef01ULL);
  const std::string e = obs::encode_epoch_token(7);
  const std::string c = "C00000000";  // any C token on a get opts into echo
  // A stamped item echoes its stored checksum on the VALUE line once the
  // get opts in — regardless of where the C token sits in the tail.
  const std::string expected = "VALUE pk 5 " + std::to_string(value.size()) +
                               " " + crc_tok + "\r\n" + value + "\r\nEND\r\n";

  std::array<std::string, 3> toks{o, e, c};
  std::sort(toks.begin(), toks.end());
  int orders = 0;
  do {
    const std::string tail = " " + toks[0] + " " + toks[1] + " " + toks[2];
    EXPECT_EQ(session.feed("get pk" + tail + "\r\n", 0), expected)
        << "token order: " << tail;
    // `bg` mixes into the tail at any position too.
    for (std::size_t at = 0; at < 3; ++at) {
      std::vector<std::string> with_bg(toks.begin(), toks.end());
      with_bg.insert(with_bg.begin() + static_cast<std::ptrdiff_t>(at), "bg");
      std::string line = "get pk";
      for (const std::string& t : with_bg) line += " " + t;
      EXPECT_EQ(session.feed(line + "\r\n", 0), expected) << line;
    }
    ++orders;
  } while (std::next_permutation(toks.begin(), toks.end()));
  EXPECT_EQ(orders, 6);

  // Without the C opt-in the VALUE line stays stock even for stamped items,
  // and an unstamped item echoes nothing even when the get opts in.
  EXPECT_EQ(session.feed("get pk " + o + " " + e + "\r\n", 0),
            "VALUE pk 5 " + std::to_string(value.size()) + "\r\n" + value +
                "\r\nEND\r\n");
  ASSERT_EQ(session.feed("set plain 0 0 2\r\nhi\r\n", 0), "STORED\r\n");
  EXPECT_EQ(session.feed("get plain " + c + " " + o + "\r\n", 0),
            "VALUE plain 0 2\r\nhi\r\nEND\r\n");
}

TEST_P(MetaTokenPermutations, SetAcceptsEveryTokenOrderAndStamps) {
  cache::ShardedCacheServer engine(small_cache(), GetParam());
  cache::TextProtocolSession session(engine);

  const std::string value = "stamped-at-set-time";
  const std::string good = obs::encode_checksum_token(crc32c(value));
  const std::string bad = obs::encode_checksum_token(crc32c(value) ^ 1u);
  const std::string o = obs::encode_trace_token(0xfeedf00ddeadbeefULL);
  const std::string e = obs::encode_epoch_token(7);

  std::array<std::string, 3> toks{o, e, good};
  std::sort(toks.begin(), toks.end());
  int idx = 0;
  do {
    const std::string key = "sk" + std::to_string(idx++);
    const std::string tail = " " + toks[0] + " " + toks[1] + " " + toks[2];
    ASSERT_EQ(session.feed("set " + key + " 0 0 " +
                               std::to_string(value.size()) + tail + "\r\n" +
                               value + "\r\n",
                           0),
              "STORED\r\n")
        << "token order: " << tail;
    // The checksum stamped at set time echoes back on an opted-in get.
    EXPECT_EQ(session.feed("get " + key + " C00000000\r\n", 0),
              "VALUE " + key + " 0 " + std::to_string(value.size()) + " " +
                  good + "\r\n" + value + "\r\nEND\r\n");
  } while (std::next_permutation(toks.begin(), toks.end()));

  // A mismatched checksum is refused no matter where it sits in the tail.
  for (const std::string& tail :
       {" " + bad + " " + o + " " + e, " " + o + " " + bad + " " + e,
        " " + o + " " + e + " " + bad}) {
    EXPECT_EQ(session.feed("set rot 0 0 " + std::to_string(value.size()) +
                               tail + "\r\n" + value + "\r\n",
                           0),
              "SERVER_ERROR bad-checksum\r\n")
        << "token order: " << tail;
    EXPECT_EQ(session.feed("get rot\r\n", 0), "END\r\n")
        << "refused set must not store";
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, MetaTokenPermutations, kShardCounts);

// --- fuzz: shuffled token tails leave the reply stream invariant -------------

class MetaTokenOrderFuzz : public ::testing::TestWithParam<SeedAndShards> {};

// Two scripts with identical commands and identical token SETS but
// independently shuffled token ORDER, and the value each stored key holds.
struct TokenScripts {
  std::string a, b;
  std::map<std::string, std::string> model;  // each key set at most once
};

TokenScripts token_scripts(std::uint64_t seed) {
  Rng rng(seed);
  TokenScripts scripts;
  std::map<std::string, std::string>& model = scripts.model;
  std::vector<std::string> stored;
  std::string& script_a = scripts.a;
  std::string& script_b = scripts.b;
  Rng shuffle_a(seed * 2 + 1), shuffle_b(seed * 7 + 5);
  const auto tail = [](std::vector<std::string> toks, Rng& r) {
    for (std::size_t i = toks.size(); i > 1; --i) {
      std::swap(toks[i - 1], toks[r.next_below(i)]);
    }
    std::string out;
    for (const std::string& t : toks) out += " " + t;
    return out;
  };

  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> toks;
    if (rng.next_below(2) == 0) {
      toks.push_back(obs::encode_trace_token(rng.next_u64() | 1));
    }
    if (rng.next_below(2) == 0) toks.push_back(obs::encode_epoch_token(7));
    if (rng.next_below(4) == 0) toks.push_back("bg");
    if (stored.empty() || rng.next_below(3) == 0) {
      const std::string key = "k" + std::to_string(i);
      std::string payload;
      const auto len = 1 + rng.next_below(48);
      for (std::uint64_t b = 0; b < len; ++b) {
        payload += static_cast<char>('a' + rng.next_below(26));
      }
      toks.push_back(obs::encode_checksum_token(crc32c(payload)));
      const std::string head =
          "set " + key + " 0 0 " + std::to_string(payload.size());
      script_a += head + tail(toks, shuffle_a) + "\r\n" + payload + "\r\n";
      script_b += head + tail(toks, shuffle_b) + "\r\n" + payload + "\r\n";
      model[key] = payload;
      stored.push_back(key);
    } else {
      const std::string key = rng.next_below(8) == 0
                                  ? "never-set"
                                  : stored[rng.next_below(stored.size())];
      if (rng.next_below(2) == 0) toks.push_back("C00000000");
      script_a += "get " + key + tail(toks, shuffle_a) + "\r\n";
      script_b += "get " + key + tail(toks, shuffle_b) + "\r\n";
    }
  }
  return scripts;
}

TEST_P(MetaTokenOrderFuzz, ShuffledTokenTailsMatchAndEchoCorrectChecksums) {
  const auto [seed, shards] = GetParam();
  // Any-order parsing means the two scripts' reply streams must be
  // byte-identical; every echoed C token must match the CRC of the value it
  // rides with.
  const TokenScripts scripts = token_scripts(seed);
  const std::string& script_a = scripts.a;
  const std::string& script_b = scripts.b;
  const std::map<std::string, std::string>& model = scripts.model;

  const auto run = [&](const std::string& wire, std::size_t max_chunk) {
    cache::ShardedCacheServer engine(small_cache(), shards);
    cache::TextProtocolSession session(engine);
    return feed_chunked(session, wire, seed ^ max_chunk, max_chunk);
  };

  const std::string out_a = run(script_a, script_a.size());
  EXPECT_EQ(out_a, run(script_b, script_b.size()));
  EXPECT_EQ(out_a, run(script_a, 1));  // and ordering survives segmentation
  EXPECT_EQ(out_a, run(script_a, 7));

  // Scan the reply stream: every echoed checksum must be the CRC of the
  // value the model holds for that key. Payloads are lowercase-only, so
  // "VALUE " can never appear inside one.
  int echoes = 0;
  std::size_t pos = 0;
  while ((pos = out_a.find("VALUE ", pos)) != std::string::npos) {
    const std::size_t eol = out_a.find("\r\n", pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = out_a.substr(pos, eol - pos);
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start < line.size()) {
      const std::size_t space = line.find(' ', start);
      const std::size_t end = space == std::string::npos ? line.size() : space;
      parts.push_back(line.substr(start, end - start));
      start = end + 1;
    }
    ASSERT_GE(parts.size(), 4u) << line;
    if (parts.size() == 5) {
      ++echoes;
      const auto it = model.find(parts[1]);
      ASSERT_NE(it, model.end()) << line;
      EXPECT_EQ(parts[4], obs::encode_checksum_token(crc32c(it->second)))
          << line;
    }
    pos = eol + 2;
  }
  EXPECT_GT(echoes, 0) << "fuzz script must exercise the checksum echo";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MetaTokenOrderFuzz,
    ::testing::Combine(::testing::Values(11ull, 2024ull, 777777ull),
                       kShardCounts));

// --- raw bytes: no input crashes, desyncs or unbounds the session ----------
//
// Valid commands mixed with arbitrary bytes, 0x80 magic bytes and stray
// CR/LF fragments; seeds divisible by 3 open with the binary magic, even
// seeds end with a run past kMaxLineBytes that has no CRLF. Fed whole and
// in chunks to 1- and 4-shard engines, every feeding must give the same
// replies, and the session must close exactly when the script opens with
// 0x80 or passes the line bound.

std::string raw_script(std::uint64_t seed) {
  Rng rng(seed);
  std::string wire = seed % 3 == 0 ? "\x80" : "";
  for (int i = 0; i < 300; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(20));
    switch (rng.next_below(8)) {
      case 0: {
        const auto len = rng.next_below(32);
        wire += "set " + key + " 0 0 " + std::to_string(len) + "\r\n" +
                std::string(len, static_cast<char>('a' + len % 26)) + "\r\n";
        break;
      }
      case 1: wire += "get " + key + "\r\n"; break;
      case 2: wire += "delete " + key + "\r\n"; break;
      case 3: wire += "incr " + key + " 1\r\n"; break;
      case 4:
        wire += std::array<const char*, 4>{"\r", "\n", "\r\n", "\x80"}
            [rng.next_below(4)];
        break;
      default:
        for (auto n = 1 + rng.next_below(64); n > 0; --n) {
          wire += static_cast<char>(rng.next_below(256));
        }
    }
  }
  if (seed % 2 == 0) {
    // No LF anywhere in the run, so no CRLF can end the line inside it.
    for (auto n = cache::kMaxLineBytes + 1 + rng.next_below(4096); n > 0;
         --n) {
      wire += static_cast<char>('a' + rng.next_below(26));
    }
  }
  return wire;
}

class RawBytesFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RawBytesFuzz, RepliesMatchAndTheSessionClosesPastTheBound) {
  const std::uint64_t seed = GetParam();
  const std::string wire = raw_script(seed);
  const bool magic_first = seed % 3 == 0;
  const bool overlong = seed % 2 == 0;
  const auto run = [&](int shards, std::size_t max_chunk) {
    cache::ShardedCacheServer engine(small_cache(), shards);
    cache::TextProtocolSession session(engine);
    const std::string out =
        feed_chunked(session, wire, seed ^ max_chunk, max_chunk);
    EXPECT_EQ(session.closed(), magic_first || overlong)
        << shards << " shards, chunks of up to " << max_chunk << " bytes";
    return out;
  };

  const std::string reference = run(1, wire.size());
  if (magic_first) {
    EXPECT_EQ(reference, "");
  } else {
    EXPECT_NE(reference.find("ERROR\r\n"), std::string::npos)
        << "the garbage must reach the parser";
    const std::string refused = "CLIENT_ERROR line too long\r\n";
    EXPECT_EQ(reference.size() >= refused.size() &&
                  reference.compare(reference.size() - refused.size(),
                                    refused.size(), refused) == 0,
              overlong);
  }
  for (const int shards : {1, 4}) {
    for (const std::size_t max_chunk :
         {std::size_t{7}, std::size_t{512}, wire.size()}) {
      EXPECT_EQ(run(shards, max_chunk), reference)
          << shards << " shards, chunks of up to " << max_chunk << " bytes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RawBytesFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull));

// --- parity: reply bytes pinned to recorded digests -------------------------
//
// The suites above compare feedings of one session with each other. These
// digests pin the bytes themselves: the CRC32C of each script's reply
// stream, fed whole to a 1- and a 4-shard engine, as recorded from the
// session that buffered every chunk and built one string per reply, before
// the session parsed in place. A change to any reply byte changes a digest.

std::uint32_t whole_reply_digest(std::string_view wire, int shards) {
  cache::ShardedCacheServer engine(small_cache(), shards);
  cache::TextProtocolSession session(engine);
  return crc32c(session.feed(wire, 0));
}

struct PinnedDigest {
  std::uint64_t seed;
  std::uint32_t crc;
};

TEST(ReplyDigests, SegmentationScripts) {
  for (const PinnedDigest& pin : std::array<PinnedDigest, 4>{
           {{1, 0xc630dd61},
            {17, 0x731359a4},
            {3333, 0x32317bd8},
            {98765, 0x30c7f2d3}}}) {
    for (const int shards : {1, 4}) {
      EXPECT_EQ(whole_reply_digest(segmentation_script(pin.seed), shards),
                pin.crc)
          << "seed " << pin.seed << ", " << shards << " shards";
    }
  }
}

TEST(ReplyDigests, MetaTokenScripts) {
  for (const PinnedDigest& pin : std::array<PinnedDigest, 3>{
           {{11, 0x0c2bc95d}, {2024, 0xb1ea7dcf}, {777777, 0xcfe407e2}}}) {
    const TokenScripts scripts = token_scripts(pin.seed);
    for (const int shards : {1, 4}) {
      EXPECT_EQ(whole_reply_digest(scripts.a, shards), pin.crc)
          << "seed " << pin.seed << ", " << shards << " shards";
      EXPECT_EQ(whole_reply_digest(scripts.b, shards), pin.crc)
          << "seed " << pin.seed << ", " << shards << " shards";
    }
  }
}

TEST(ReplyDigests, RawByteScripts) {
  for (const PinnedDigest& pin : std::array<PinnedDigest, 6>{
           {{1, 0x63c4b467},
            {2, 0xefc83b4c},
            {3, 0},  // seeds 3 and 6 open with 0x80: no reply at all
            {4, 0x87fb5ad1},
            {5, 0x92d2a9dd},
            {6, 0}}}) {
    for (const int shards : {1, 4}) {
      EXPECT_EQ(whole_reply_digest(raw_script(pin.seed), shards), pin.crc)
          << "seed " << pin.seed << ", " << shards << " shards";
    }
  }
}

// Hand-written scripts for every verb and refusal the random scripts reach
// rarely or never: conditional stores, counters, reserved keys, checksum and
// epoch refusals, and the pipeline cap.

std::string store_line(std::string_view verb, std::string_view key,
                       std::string_view value, std::string_view tail = {},
                       std::uint32_t flags = 0) {
  std::string line = std::string(verb) + " " + std::string(key) + " " +
                     std::to_string(flags) + " 0 " +
                     std::to_string(value.size());
  if (!tail.empty()) line += " " + std::string(tail);
  return line + "\r\n" + std::string(value) + "\r\n";
}

std::string storage_verbs_script() {
  return store_line("set", "a", "alpha") +
         store_line("add", "a", "other") +     // hit: NOT_STORED
         store_line("add", "b", "beta", {}, 7) +  // miss: STORED
         store_line("replace", "a", "ALPHA", {}, 3) +  // hit: STORED
         store_line("replace", "z", "zeta") +  // miss: NOT_STORED
         store_line("add", "a", "x", "noreply") +
         store_line("add", "n", "new", "noreply") +
         store_line("replace", "b", "BETA", "noreply") +
         store_line("replace", "y", "why", "noreply") +
         "get a b n y z\r\n"
         "touch a 10\r\ntouch z 10\r\ntouch b 10 noreply\r\n"
         "delete n\r\ndelete n\r\ndelete b noreply\r\ndelete z noreply\r\n"
         "get a b n\r\n"
         "stats\r\n"
         "flush_all\r\nget a\r\n" +
         store_line("set", "c", "gamma") +
         "flush_all noreply\r\nget c\r\nstats\r\n";
}

std::string counter_script() {
  return store_line("set", "n", "10") + "incr n 5\r\ndecr n 3\r\n" +
         store_line("set", "w", "18446744073709551615") +
         "incr w 2\r\n"  // wraps at 2^64
         "decr n 100\r\n" +  // clamps at 0
         store_line("set", "t", "text") +
         "incr t 1\r\ndecr t 1\r\n"  // non-numeric
         "incr missing 1\r\ndecr missing 1\r\n"
         "incr n 4 noreply\r\ndecr n 1 noreply\r\nincr missing 1 noreply\r\n"
         "get n w t\r\n" +
         store_line("set", "f", "10", {}, 5) +
         "incr f 1\r\ndecr f 2 noreply\r\nget f\r\n";
}

std::string reserved_key_script() {
  return "get PROTEUS_EPOCH\r\n" + store_line("set", "PROTEUS_EPOCH", "7") +
         store_line("set", "PROTEUS_EPOCH", "3") +    // stale
         store_line("set", "PROTEUS_EPOCH", "abc") +  // bad payload
         store_line("add", "PROTEUS_EPOCH", "9") +    // only set adopts
         "get PROTEUS_EPOCH\r\n" + store_line("set", "BLOOM_FILTER", "x") +
         "incr BLOOM_FILTER 1\r\ndelete BLOOM_FILTER\r\n" +
         store_line("set", "d1", "one") + store_line("set", "d2", "two") +
         "get SET_BLOOM_FILTER\r\nget BLOOM_FILTER\r\n";
}

std::string refusal_script() {
  const std::string stamp = obs::encode_checksum_token(crc32c("hello"));
  const std::string old = obs::encode_epoch_token(3);
  return store_line("set", "k", "hello", "C00000000") +  // wrong stamp
         store_line("set", "k", "hello", stamp) + "get k C00000000\r\n" +
         store_line("set", "PROTEUS_EPOCH", "5") +
         store_line("set", "k", "stale", old) +  // stale stamp
         "delete k " + old + "\r\n" +
         store_line("set", "k", "fresh", obs::encode_epoch_token(5)) +
         store_line("set", "k", "fenced", "noreply " + old) +
         "get k\r\nget k\r\n" +
         // Beyond every shard's budget: refused at once, block discarded.
         store_line("set", "big", std::string(5 << 20, 'b')) +
         "get big k\r\n";
}

struct PinnedScript {
  const char* name;
  std::string wire;
  std::uint32_t crc;
};

TEST(ReplyDigests, VerbScripts) {
  for (const PinnedScript& pin : std::array<PinnedScript, 4>{{
           {"storage verbs", storage_verbs_script(), 0x07f10aaf},
           {"counters", counter_script(), 0x3eee9298},
           {"reserved keys", reserved_key_script(), 0x5c1e3677},
           {"refusals", refusal_script(), 0x117f8c4d},
       }}) {
    for (const int shards : {1, 4}) {
      EXPECT_EQ(whole_reply_digest(pin.wire, shards), pin.crc)
          << pin.name << ", " << shards << " shards";
    }
  }
  // The pipeline cap of one command per shard per batch: what is shed
  // depends on which keys share a shard, so each shard count has its own.
  const std::string batch =
      store_line("set", "p0", "zero") + store_line("set", "p1", "one") +
      store_line("set", "p2", "two", "noreply") + "get p0 p1\r\n" +
      "incr p0 1\r\ndelete p1\r\nversion\r\nflush_all\r\nstats\r\n"
      "bogus\r\n" + store_line("set", "p3", "three");
  for (const auto& [shards, crc] :
       std::array<std::pair<int, std::uint32_t>, 2>{{{1, 0x86c111dd}, {4, 0x0cbd4aad}}}) {
    cache::ShardedCacheServer engine(small_cache(), shards);
    std::atomic<std::uint64_t> sheds{0};
    cache::TextProtocolSession session(engine, nullptr, nullptr, -1,
                                       cache::PipelinePolicy{1, &sheds});
    EXPECT_EQ(crc32c(session.feed(batch, 0) + session.feed(batch, 0)), crc)
        << "pipeline cap, " << shards << " shards";
    EXPECT_GT(sheds.load(), 0u) << shards << " shards";
  }
}

}  // namespace
}  // namespace proteus
