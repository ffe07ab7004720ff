#include "cache/text_protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace proteus::cache {
namespace {

CacheConfig proto_config() {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  cfg.digest.num_counters = 1 << 14;
  cfg.digest.counter_bits = 4;
  cfg.digest.num_hashes = 4;
  return cfg;
}

struct Rig {
  ShardedCacheServer server{proto_config(), 1};
  TextProtocolSession session{server};
  std::string run(std::string_view wire, SimTime now = 0) {
    return session.feed(wire, now);
  }
};

// --- parser ------------------------------------------------------------------

TEST(ParseCommandLine, Get) {
  const TextCommand cmd = parse_command_line("get foo");
  EXPECT_EQ(cmd.op, TextCommand::Op::kGet);
  ASSERT_EQ(cmd.keys.size(), 1u);
  EXPECT_EQ(cmd.keys[0], "foo");
}

TEST(ParseCommandLine, MultiGet) {
  const TextCommand cmd = parse_command_line("get a b c");
  EXPECT_EQ(cmd.op, TextCommand::Op::kGet);
  EXPECT_EQ(cmd.keys.size(), 3u);
}

TEST(ParseCommandLine, GetsAliasesGet) {
  EXPECT_EQ(parse_command_line("gets foo").op, TextCommand::Op::kGet);
}

TEST(ParseCommandLine, Set) {
  const TextCommand cmd = parse_command_line("set foo 13 0 5");
  EXPECT_EQ(cmd.op, TextCommand::Op::kSet);
  EXPECT_EQ(cmd.keys[0], "foo");
  EXPECT_EQ(cmd.flags, 13u);
  EXPECT_EQ(cmd.bytes, 5u);
  EXPECT_FALSE(cmd.noreply);
}

TEST(ParseCommandLine, SetNoreply) {
  const TextCommand cmd = parse_command_line("set foo 0 0 5 noreply");
  EXPECT_EQ(cmd.op, TextCommand::Op::kSet);
  EXPECT_TRUE(cmd.noreply);
}

TEST(ParseCommandLine, RejectsMalformed) {
  EXPECT_EQ(parse_command_line("").op, TextCommand::Op::kInvalid);
  EXPECT_EQ(parse_command_line("bogus foo").op, TextCommand::Op::kInvalid);
  EXPECT_EQ(parse_command_line("get").op, TextCommand::Op::kInvalid);
  EXPECT_EQ(parse_command_line("set foo 0 0").op, TextCommand::Op::kInvalid);
  EXPECT_EQ(parse_command_line("set foo 0 0 abc").op, TextCommand::Op::kInvalid);
  EXPECT_EQ(parse_command_line("incr foo").op, TextCommand::Op::kInvalid);
  EXPECT_EQ(parse_command_line("stats a b").op, TextCommand::Op::kInvalid);
}

TEST(ParseCommandLine, StatsTakesOneOptionalArg) {
  EXPECT_EQ(parse_command_line("stats").op, TextCommand::Op::kStats);
  EXPECT_TRUE(parse_command_line("stats").stats_arg.empty());
  const TextCommand cmd = parse_command_line("stats reset");
  EXPECT_EQ(cmd.op, TextCommand::Op::kStats);
  EXPECT_EQ(cmd.stats_arg, "reset");
}

TEST(ParseCommandLine, RejectsOversizedAndControlKeys) {
  const std::string big(251, 'k');
  EXPECT_EQ(parse_command_line("get " + big).op, TextCommand::Op::kInvalid);
  EXPECT_EQ(parse_command_line(std::string("get a\tb")).op,
            TextCommand::Op::kInvalid);
  // Exactly 250 bytes is fine.
  const std::string ok(250, 'k');
  EXPECT_EQ(parse_command_line("get " + ok).op, TextCommand::Op::kGet);
}

TEST(ParseCommandLine, Delete) {
  EXPECT_EQ(parse_command_line("delete foo").op, TextCommand::Op::kDelete);
  EXPECT_TRUE(parse_command_line("delete foo noreply").noreply);
}

TEST(ParseCommandLine, IncrDecrTouchFlush) {
  EXPECT_EQ(parse_command_line("incr c 5").op, TextCommand::Op::kIncr);
  EXPECT_EQ(parse_command_line("incr c 5").delta, 5u);
  EXPECT_EQ(parse_command_line("decr c 2").op, TextCommand::Op::kDecr);
  EXPECT_EQ(parse_command_line("touch k 30").op, TextCommand::Op::kTouch);
  EXPECT_EQ(parse_command_line("flush_all").op, TextCommand::Op::kFlushAll);
}

TEST(ParseCommandLine, BackgroundClassifierAgreesWithTheParser) {
  const std::string o = obs::encode_trace_token(0x0123456789abcdefULL);
  const std::string e = obs::encode_epoch_token(4);
  const std::vector<std::string> lines = {
      "get k bg",           "get k bg " + o, "get k " + o + " bg " + e,
      "set k 0 0 1 bg " + e, "delete k " + o + " bg",
      "get bg",             "get k",         "get k " + o,
      "incr k bg"};
  for (const std::string& line : lines) {
    EXPECT_EQ(is_background_line(line), parse_command_line(line).background)
        << line;
  }
  // Digest pulls are background whatever their tokens; epoch hellos are not.
  EXPECT_TRUE(is_background_line("gets BLOOM_FILTER"));
  EXPECT_TRUE(is_background_line("get SET_BLOOM_FILTER " + o));
  EXPECT_FALSE(is_background_line("get PROTEUS_EPOCH"));
}

// --- session round trips -------------------------------------------------------

TEST(TextProtocol, SetThenGet) {
  Rig rig;
  EXPECT_EQ(rig.run("set foo 7 0 5\r\nhello\r\n"), "STORED\r\n");
  EXPECT_EQ(rig.run("get foo\r\n"), "VALUE foo 7 5\r\nhello\r\nEND\r\n");
}

TEST(TextProtocol, GetMissReturnsBareEnd) {
  Rig rig;
  EXPECT_EQ(rig.run("get nothing\r\n"), "END\r\n");
}

TEST(TextProtocol, MultiGetSkipsMisses) {
  Rig rig;
  rig.run("set a 0 0 1\r\nx\r\n");
  rig.run("set c 0 0 1\r\ny\r\n");
  EXPECT_EQ(rig.run("get a b c\r\n"),
            "VALUE a 0 1\r\nx\r\nVALUE c 0 1\r\ny\r\nEND\r\n");
}

TEST(TextProtocol, SegmentedInputAcrossFeeds) {
  // Commands split at arbitrary byte boundaries (TCP segmentation).
  Rig rig;
  std::string out;
  out += rig.run("se");
  out += rig.run("t foo 0 0 5\r\nhe");
  out += rig.run("llo\r\nget fo");
  out += rig.run("o\r\n");
  EXPECT_EQ(out, "STORED\r\nVALUE foo 0 5\r\nhello\r\nEND\r\n");
}

TEST(TextProtocol, BinarySafePayload) {
  Rig rig;
  std::string payload = "a\r\nb\0c";
  payload.resize(6);  // include the NUL
  std::string wire = "set bin 0 0 6\r\n";
  wire += payload;
  wire += "\r\n";
  EXPECT_EQ(rig.run(wire), "STORED\r\n");
  const std::string reply = rig.run("get bin\r\n");
  EXPECT_EQ(reply, std::string("VALUE bin 0 6\r\n") + payload + "\r\nEND\r\n");
}

TEST(TextProtocol, AddAndReplaceSemantics) {
  Rig rig;
  EXPECT_EQ(rig.run("replace foo 0 0 1\r\nx\r\n"), "NOT_STORED\r\n");
  EXPECT_EQ(rig.run("add foo 0 0 1\r\nx\r\n"), "STORED\r\n");
  EXPECT_EQ(rig.run("add foo 0 0 1\r\ny\r\n"), "NOT_STORED\r\n");
  EXPECT_EQ(rig.run("replace foo 0 0 1\r\nz\r\n"), "STORED\r\n");
  EXPECT_EQ(rig.run("get foo\r\n"), "VALUE foo 0 1\r\nz\r\nEND\r\n");
}

TEST(TextProtocol, DeleteSemantics) {
  Rig rig;
  rig.run("set foo 0 0 1\r\nx\r\n");
  EXPECT_EQ(rig.run("delete foo\r\n"), "DELETED\r\n");
  EXPECT_EQ(rig.run("delete foo\r\n"), "NOT_FOUND\r\n");
}

TEST(TextProtocol, NoreplySuppressesResponses) {
  Rig rig;
  EXPECT_EQ(rig.run("set foo 0 0 1 noreply\r\nx\r\ndelete foo noreply\r\n"),
            "");
  EXPECT_EQ(rig.run("get foo\r\n"), "END\r\n");
}

TEST(TextProtocol, IncrDecr) {
  Rig rig;
  rig.run("set c 0 0 2\r\n10\r\n");
  EXPECT_EQ(rig.run("incr c 5\r\n"), "15\r\n");
  EXPECT_EQ(rig.run("decr c 20\r\n"), "0\r\n");  // clamps at zero
  EXPECT_EQ(rig.run("incr missing 1\r\n"), "NOT_FOUND\r\n");
  rig.run("set s 0 0 3\r\nabc\r\n");
  EXPECT_EQ(rig.run("incr s 1\r\n"),
            "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n");
}

TEST(TextProtocol, IncrDecrKeepTheFlagsAndDropTheStamp) {
  // memcached keeps an item's client flags across incr/decr. The stored
  // checksum stamped the old digits, so it goes with them.
  Rig rig;
  EXPECT_EQ(rig.run("set c 5 0 2 " + obs::encode_checksum_token(crc32c("10")) +
                    "\r\n10\r\n"),
            "STORED\r\n");
  EXPECT_EQ(rig.run("incr c 1\r\n"), "11\r\n");
  EXPECT_EQ(rig.run("get c C00000000\r\n"), "VALUE c 5 2\r\n11\r\nEND\r\n");
  EXPECT_EQ(rig.run("decr c 2\r\n"), "9\r\n");
  EXPECT_EQ(rig.run("get c\r\n"), "VALUE c 5 1\r\n9\r\nEND\r\n");
}

TEST(TextProtocol, TouchRefreshesHotness) {
  CacheConfig cfg = proto_config();
  cfg.item_ttl = 10 * kSecond;
  ShardedCacheServer server(cfg, 1);
  TextProtocolSession session(server);
  session.feed("set k 0 0 1\r\nx\r\n", 0);
  EXPECT_EQ(session.feed("touch k 0\r\n", 8 * kSecond), "TOUCHED\r\n");
  // Still alive at t=16s only because the touch refreshed it.
  EXPECT_EQ(session.feed("get k\r\n", 16 * kSecond),
            "VALUE k 0 1\r\nx\r\nEND\r\n");
  EXPECT_EQ(session.feed("touch k 0\r\n", 60 * kSecond), "NOT_FOUND\r\n");
}

TEST(TextProtocol, FlushAll) {
  Rig rig;
  rig.run("set a 0 0 1\r\nx\r\n");
  EXPECT_EQ(rig.run("flush_all\r\n"), "OK\r\n");
  EXPECT_EQ(rig.run("get a\r\n"), "END\r\n");
}

TEST(TextProtocol, StatsReportCounters) {
  Rig rig;
  rig.run("set a 0 0 1\r\nx\r\n");
  rig.run("get a\r\nget b\r\n");
  const std::string stats = rig.run("stats\r\n");
  EXPECT_NE(stats.find("STAT cmd_get 2\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT get_hits 1\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT get_misses 1\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT curr_items 1\r\n"), std::string::npos);
  EXPECT_NE(stats.find("END\r\n"), std::string::npos);
}

TEST(TextProtocol, TouchIncrDecrCountAsNeitherGetsNorSets) {
  // memcached counts touch, incr and decr in none of cmd_get, get_hits,
  // get_misses and cmd_set, hit or miss.
  Rig rig;
  rig.run("set c 0 0 2\r\n10\r\n");
  EXPECT_EQ(rig.run("touch c 0\r\ntouch missing 0\r\n"),
            "TOUCHED\r\nNOT_FOUND\r\n");
  EXPECT_EQ(rig.run("incr c 5\r\ndecr c 2\r\nincr missing 1\r\n"),
            "15\r\n13\r\nNOT_FOUND\r\n");
  const std::string stats = rig.run("stats\r\n");
  EXPECT_NE(stats.find("STAT cmd_get 0\r\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("STAT get_hits 0\r\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("STAT get_misses 0\r\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("STAT cmd_set 1\r\n"), std::string::npos) << stats;
  EXPECT_EQ(rig.run("get c\r\n"), "VALUE c 0 2\r\n13\r\nEND\r\n");
}

TEST(TextProtocol, StatsKeySetAndFormat) {
  // memcached-parity checks of handle_stats(): every key present exactly
  // once, every line "STAT <name> <decimal>\r\n", END-terminated.
  Rig rig;
  rig.run("set a 0 0 1\r\nx\r\n");
  rig.run("get a\r\n");
  const std::string stats = rig.run("stats\r\n");
  for (const char* name :
       {"cmd_get", "get_hits", "get_misses", "cmd_set", "delete_hits",
        "evictions", "expired_unfetched", "curr_items", "bytes",
        "limit_maxbytes", "digest_counters", "digest_bytes"}) {
    const std::string line = std::string("STAT ") + name + ' ';
    const std::size_t first = stats.find(line);
    EXPECT_NE(first, std::string::npos) << name;
    EXPECT_EQ(stats.find(line, first + 1), std::string::npos) << name;
  }
  // Every non-END line is STAT-prefixed and CRLF-terminated.
  std::size_t pos = 0;
  while (pos < stats.size()) {
    const std::size_t eol = stats.find("\r\n", pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = stats.substr(pos, eol - pos);
    if (line != "END") {
      EXPECT_EQ(line.rfind("STAT ", 0), 0u) << line;
      EXPECT_NE(line.find_last_of("0123456789"), std::string::npos) << line;
    }
    pos = eol + 2;
  }
  EXPECT_EQ(stats.substr(stats.size() - 5), "END\r\n");
}

TEST(TextProtocol, StatsResetZeroesCounters) {
  Rig rig;
  rig.run("set a 0 0 1\r\nx\r\n");
  rig.run("get a\r\nget b\r\n");
  EXPECT_EQ(rig.run("stats reset\r\n"), "RESET\r\n");
  const std::string stats = rig.run("stats\r\n");
  // Command counters are zeroed; occupancy (curr_items/bytes) is not.
  EXPECT_NE(stats.find("STAT cmd_get 0\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT get_hits 0\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_set 0\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT curr_items 1\r\n"), std::string::npos);
}

TEST(TextProtocol, StatsProteusRendersRegistry) {
  ShardedCacheServer server{proto_config(), 1};
  obs::MetricsRegistry registry;
  registry.counter("demo_total", "a counter")->inc(7);
  TextProtocolSession session(server, &registry);
  const std::string reply = session.feed("stats proteus\r\n", 0);
  EXPECT_NE(reply.find("STAT demo_total 7\r\n"), std::string::npos);
  EXPECT_EQ(reply.substr(reply.size() - 5), "END\r\n");

  // Without a registry the extension degrades to an empty reply.
  TextProtocolSession bare(server);
  EXPECT_EQ(bare.feed("stats proteus\r\n", 0), "END\r\n");
}

TEST(TextProtocol, StatsUnknownArgIsError) {
  Rig rig;
  EXPECT_EQ(rig.run("stats bogus\r\n"), "ERROR\r\n");
}

TEST(TextProtocol, VersionAndQuit) {
  Rig rig;
  EXPECT_EQ(rig.run("version\r\n"), "VERSION proteus-1.0\r\n");
  EXPECT_EQ(rig.run("quit\r\n"), "");
  EXPECT_TRUE(rig.session.closed());
  EXPECT_EQ(rig.run("get foo\r\n"), "");  // input after quit is ignored
}

TEST(TextProtocol, UnknownCommandYieldsError) {
  Rig rig;
  EXPECT_EQ(rig.run("frobnicate\r\n"), "ERROR\r\n");
}

TEST(TextProtocol, BadDataChunkTerminatorRejected) {
  Rig rig;
  // Payload not followed by CRLF.
  EXPECT_EQ(rig.run("set foo 0 0 2\r\nxyz\r\n"),
            "CLIENT_ERROR bad data chunk\r\n");
  EXPECT_EQ(rig.run("get foo\r\n"), "END\r\n");
}

// --- the paper's digest protocol through an unmodified client path ----------

TEST(TextProtocol, DigestSnapshotViaReservedKeys) {
  Rig rig;
  for (int i = 0; i < 50; ++i) {
    rig.run("set page:" + std::to_string(i) + " 0 0 1\r\nx\r\n");
  }
  const std::string ok = rig.run("get SET_BLOOM_FILTER\r\n");
  EXPECT_NE(ok.find("VALUE SET_BLOOM_FILTER 0 2\r\nOK\r\n"), std::string::npos);

  const std::string reply = rig.run("get BLOOM_FILTER\r\n");
  // Parse out the announced byte count and extract the blob.
  const std::string header_prefix = "VALUE BLOOM_FILTER 0 ";
  ASSERT_EQ(reply.rfind(header_prefix, 0), 0u) << reply.substr(0, 40);
  const std::size_t eol = reply.find("\r\n");
  const std::size_t size = std::stoul(reply.substr(header_prefix.size(),
                                                   eol - header_prefix.size()));
  const std::string blob = reply.substr(eol + 2, size);
  ASSERT_EQ(blob.size(), size);

  const bloom::BloomFilter digest = decode_digest(blob);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(digest.maybe_contains("page:" + std::to_string(i))) << i;
  }
  EXPECT_FALSE(digest.maybe_contains("page:9999"));
}

TEST(TextProtocol, ReservedKeysAreReadOnly) {
  Rig rig;
  EXPECT_EQ(rig.run("set SET_BLOOM_FILTER 0 0 1\r\nx\r\n"),
            "CLIENT_ERROR reserved key\r\n");
  EXPECT_EQ(rig.run("set BLOOM_FILTER 0 0 1\r\nx\r\n"),
            "CLIENT_ERROR reserved key\r\n");
}

TEST(TextProtocol, FlagsSurviveEvictionBoundary) {
  // Flags live in the item, so an evicted key loses them with the item.
  CacheConfig cfg = proto_config();
  cfg.memory_budget_bytes = 400;
  cfg.per_item_overhead = 0;
  ShardedCacheServer server(cfg, 1);
  TextProtocolSession session(server);
  session.feed("set a 11 0 300\r\n" + std::string(300, 'x') + "\r\n", 0);
  session.feed("set b 22 0 300\r\n" + std::string(300, 'y') + "\r\n", 0);
  EXPECT_EQ(session.feed("get a\r\n", 0), "END\r\n");  // evicted
  const std::string reply = session.feed("get b\r\n", 0);
  EXPECT_EQ(reply.rfind("VALUE b 22 300\r\n", 0), 0u);
}

// --- payload integrity over the text wire ------------------------------------

TEST(TextProtocol, AtRestCorruptionServesMissAndCountsTheDrop) {
  Rig rig;
  const std::string value = "wire-visible-integrity";
  const std::string crc_tok = obs::encode_checksum_token(crc32c(value));
  ASSERT_EQ(rig.run("set ck 0 0 " + std::to_string(value.size()) + " " +
                    crc_tok + "\r\n" + value + "\r\n"),
            "STORED\r\n");
  EXPECT_EQ(rig.run("get ck " + crc_tok + "\r\n"),
            "VALUE ck 0 " + std::to_string(value.size()) + " " + crc_tok +
                "\r\n" + value + "\r\nEND\r\n");

  // Rot the stored bytes under the stamp: the wire answer is a plain miss
  // (END, no VALUE) — corrupt bytes never make it onto the socket — and the
  // stats line records exactly one drop.
  ASSERT_TRUE(rig.server.shard(0).corrupt_value_for_test("ck", 42));
  EXPECT_EQ(rig.run("get ck\r\n"), "END\r\n");
  const std::string stats = rig.run("stats\r\n");
  EXPECT_NE(stats.find("STAT corrupt_drops 1\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT corrupt_set_rejects 0\r\n"), std::string::npos);
}

TEST(TextProtocol, BadChecksumSetCountsTheReject) {
  Rig rig;
  const std::string value = "damaged-in-flight";
  const std::string wrong = obs::encode_checksum_token(crc32c(value) ^ 1u);
  EXPECT_EQ(rig.run("set ck 0 0 " + std::to_string(value.size()) + " " +
                    wrong + "\r\n" + value + "\r\n"),
            "SERVER_ERROR bad-checksum\r\n");
  EXPECT_EQ(rig.run("get ck\r\n"), "END\r\n");
  const std::string stats = rig.run("stats\r\n");
  EXPECT_NE(stats.find("STAT corrupt_set_rejects 1\r\n"), std::string::npos);
}

// --- noreply stores: silent, and never a desynced reply stream ---------------

// A store line the way ProteusClient writes a migration store: `noreply`,
// then its C, E and bg meta tokens.
std::string noreply_store(std::string_view key, std::string_view value,
                          std::uint32_t crc, std::uint64_t epoch) {
  return "set " + std::string(key) + " 0 0 " + std::to_string(value.size()) +
         " noreply " + obs::encode_checksum_token(crc) + " " +
         obs::encode_epoch_token(epoch) + " bg\r\n" + std::string(value) +
         "\r\n";
}

TEST(ParseCommandLine, NoreplyStoreKeepsItsMetaTokens) {
  const TextCommand cmd = parse_command_line(
      "set k 0 0 5 noreply " + obs::encode_checksum_token(0xabcdef01u) + " " +
      obs::encode_epoch_token(3) + " bg");
  EXPECT_EQ(cmd.op, TextCommand::Op::kSet);
  EXPECT_TRUE(cmd.noreply);
  EXPECT_EQ(cmd.bytes, 5u);
  EXPECT_EQ(cmd.checksum, 0xabcdef01u);
  EXPECT_EQ(cmd.epoch, 3u);
  EXPECT_TRUE(cmd.background);
}

TEST(TextProtocol, NoreplyStoreWithMetaTokensIsStoredSilently) {
  Rig rig;
  ASSERT_TRUE(rig.server.adopt_epoch(4));
  const std::string value = "fire-and-forget";
  EXPECT_EQ(rig.run(noreply_store("k", value, crc32c(value), 4)), "");
  const std::string crc_tok = obs::encode_checksum_token(crc32c(value));
  EXPECT_EQ(rig.run("get k C00000000\r\n"),
            "VALUE k 0 " + std::to_string(value.size()) + " " + crc_tok +
                "\r\n" + value + "\r\nEND\r\n");
}

TEST(TextProtocol, RefusedNoreplyStoresAreSilentAndKeepTheStreamInSync) {
  CacheConfig cfg = proto_config();
  cfg.memory_budget_bytes = 1024;
  ShardedCacheServer server(cfg, 1);
  TextProtocolSession session(server);
  ASSERT_TRUE(server.adopt_epoch(7));
  const std::string value = "refused";
  const std::string too_large(4096, 'x');
  const std::string stale = "SERVER_ERROR stale-epoch\r\n";
  struct Case {
    const char* why;
    std::string wire;
    std::string next_reply;  // what the following `get k` reads
  };
  const Case cases[] = {
      {"wrong stamp", noreply_store("k", value, crc32c(value) ^ 1u, 7),
       "END\r\n"},
      // The one refusal that is not silent for ever: the next data get
      // answers it in place of its own reply.
      {"stale epoch", noreply_store("k", value, crc32c(value), 3), stale},
      {"too large", noreply_store("k", too_large, crc32c(too_large), 7),
       "END\r\n"},
  };
  for (const Case& c : cases) {
    // The refusal and the next get share one batch: the get's reply is the
    // only byte string on the wire.
    EXPECT_EQ(session.feed(c.wire + "get k\r\n", 0), c.next_reply) << c.why;
    EXPECT_EQ(session.feed("get k\r\n", 0), "END\r\n") << c.why;
    // The same refusal split from its get, byte by byte.
    std::string out;
    for (const char ch : c.wire) {
      out += session.feed(std::string_view(&ch, 1), 0);
    }
    EXPECT_EQ(out, "") << c.why;
    EXPECT_EQ(session.feed("get k\r\n", 0), c.next_reply) << c.why;
    EXPECT_EQ(session.feed("get k\r\n", 0), "END\r\n") << c.why;
  }
  EXPECT_EQ(server.stats().corrupt_set_rejects, 2u);
  EXPECT_EQ(server.stale_epoch_rejects(), 2u);
  EXPECT_FALSE(session.closed());
}

TEST(TextProtocol, FencedNoreplyStoreIsAnsweredByTheNextDataGetOnly) {
  Rig rig;
  ASSERT_TRUE(rig.server.adopt_epoch(7));
  ASSERT_EQ(rig.run("set k 0 0 1\r\nx\r\n"), "STORED\r\n");
  EXPECT_EQ(rig.run(noreply_store("k", "y", crc32c("y"), 3)), "");
  // Reserved reads (the epoch hello, digest pulls) pass it by.
  EXPECT_EQ(rig.run("get PROTEUS_EPOCH\r\n").rfind("VALUE PROTEUS_EPOCH ", 0),
            0u);
  EXPECT_EQ(rig.run("get k\r\n"), "SERVER_ERROR stale-epoch\r\n");
  EXPECT_EQ(rig.run("get k\r\n"), "VALUE k 0 1\r\nx\r\nEND\r\n");
  // An acknowledged fenced store carries its own refusal.
  EXPECT_EQ(rig.run("set k 0 0 1 " + obs::encode_epoch_token(3) +
                    "\r\ny\r\nget k\r\n"),
            "SERVER_ERROR stale-epoch\r\nVALUE k 0 1\r\nx\r\nEND\r\n");
}

TEST(TextProtocol, ShedBatchWantsAReplyUnlessEveryCommandIsNoreply) {
  const std::string store = noreply_store("k", "v", crc32c("v"), 1);
  EXPECT_FALSE(wants_shed_reply(store));
  EXPECT_FALSE(wants_shed_reply(store + store));
  EXPECT_FALSE(wants_shed_reply("delete k noreply\r\n" + store));
  // A data block that reads like a command line is still data.
  EXPECT_FALSE(wants_shed_reply("set k 0 0 7 noreply\r\nget k\r\n\r\n"));
  // The largest block the parser takes is stepped over without wrapping.
  EXPECT_FALSE(wants_shed_reply("set k 0 0 " + std::to_string(SIZE_MAX - 2) +
                                " noreply\r\nget k\r\n"));
  EXPECT_TRUE(wants_shed_reply(store + "get k\r\n"));
  EXPECT_TRUE(wants_shed_reply("get k\r\n"));
  EXPECT_TRUE(wants_shed_reply("set k 0 0 1\r\nx\r\n"));
  EXPECT_TRUE(wants_shed_reply(""));
}

TEST(TextProtocol, FirstReplyLineStepsOverLeadingNoreplyCommands) {
  const std::string store = noreply_store("k", "v", crc32c("v"), 1);
  EXPECT_EQ(first_reply_line(store + "get k bg\r\n"), "get k bg");
  EXPECT_EQ(first_reply_line(store + store + "gets BLOOM_FILTER\r\n"),
            "gets BLOOM_FILTER");
  EXPECT_EQ(first_reply_line("delete k noreply\r\nincr n 1 noreply\r\n"
                             "touch k 5 noreply\r\nflush_all noreply\r\n"
                             "version\r\n"),
            "version");
  // The reply-expecting command may still be waiting for its CRLF.
  EXPECT_EQ(first_reply_line(store + "get k"), "get k");
  // A data block that reads like a command line is still data.
  EXPECT_EQ(first_reply_line("set k 0 0 7 noreply\r\nget k\r\n\r\nget j\r\n"),
            "get j");
  // `noreply` counts only where the parser reads it: last, after exactly
  // the command's own arguments and before any meta tokens.
  for (const char* line :
       {"set k 0 0 1", "set k 0 0 noreply", "set k 0 0 1 2 noreply",
        "delete k 0 noreply", "get k noreply", "set k 0 0 1 bg noreply x"}) {
    EXPECT_EQ(first_reply_line(std::string(line) + "\r\n"), line) << line;
    EXPECT_EQ(parse_command_line(line).noreply, false) << line;
  }
  EXPECT_EQ(first_reply_line(store), std::nullopt);
  EXPECT_EQ(first_reply_line(""), std::nullopt);
}

// first_reply_line reads `noreply` where the parser does, over lines drawn
// from the verbs, arguments and meta tokens that decide it.
TEST(TextProtocol, FirstReplyLineAgreesWithTheParserOnNoreply) {
  const std::vector<std::string> vocab = {
      "set",     "add", "delete", "incr", "touch", "flush_all", "get",
      "version", "k",   "0",      "5",    "noreply", "bg",      "",
      obs::encode_checksum_token(7), obs::encode_epoch_token(3)};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 20000; ++i) {
    std::string line = vocab[next() % 7];  // a verb first
    for (std::uint64_t n = next() % 8; n > 0; --n) {
      line += ' ' + vocab[next() % vocab.size()];
    }
    EXPECT_EQ(first_reply_line(line + "\r\n").has_value(),
              !parse_command_line(line).noreply)
        << line;
  }
}

// --- epoch push integrity ----------------------------------------------------

TEST(TextProtocol, CorruptEpochPushIsRefusedAndLeavesTheFence) {
  Rig rig;
  ASSERT_EQ(rig.run("set PROTEUS_EPOCH 0 0 1\r\n5\r\n"), "STORED\r\n");
  // A C-stamped push whose payload fails its CRC is verified before the
  // payload is read as an epoch: refused, counted, fence untouched.
  const std::string wrong = obs::encode_checksum_token(crc32c("9") ^ 1u);
  EXPECT_EQ(rig.run("set PROTEUS_EPOCH 0 0 1 " + wrong + "\r\n9\r\n"),
            "SERVER_ERROR bad-checksum\r\n");
  EXPECT_EQ(rig.server.cluster_epoch(), 5u);
  const std::string stats = rig.run("stats\r\n");
  EXPECT_NE(stats.find("STAT cluster_epoch 5\r\n"), std::string::npos);
  EXPECT_NE(stats.find("STAT corrupt_set_rejects 1\r\n"), std::string::npos);
  // The same push with a good stamp is adopted.
  const std::string good = obs::encode_checksum_token(crc32c("9"));
  EXPECT_EQ(rig.run("set PROTEUS_EPOCH 0 0 1 " + good + "\r\n9\r\n"),
            "STORED\r\n");
  EXPECT_EQ(rig.server.cluster_epoch(), 9u);
}

// --- bounded buffering -------------------------------------------------------

TEST(TextProtocol, OversizedStoreIsRefusedAndDropsTheOlderCopy) {
  CacheConfig cfg = proto_config();
  cfg.memory_budget_bytes = 1024;
  ShardedCacheServer server(cfg, 1);
  TextProtocolSession session(server);
  const std::string too_large = "SERVER_ERROR object too large for cache\r\n";
  ASSERT_EQ(session.feed("set k 0 0 2\r\nok\r\n", 0), "STORED\r\n");
  // <bytes> above the budget: refused as soon as the line arrives.
  EXPECT_EQ(session.feed("set k 0 0 4096\r\n", 0), too_large);
  EXPECT_EQ(session.feed(std::string(4096, 'x') + "\r\n", 0), "");
  EXPECT_EQ(session.feed("get k\r\n", 0), "END\r\n");
  // <bytes> within the budget, but the item with its key and overhead is
  // not: refused by the store itself once the data block is read.
  ASSERT_EQ(session.feed("set k 0 0 2\r\nok\r\n", 0), "STORED\r\n");
  EXPECT_EQ(session.feed("set k 0 0 1024\r\n" + std::string(1024, 'y') +
                             "\r\nget k\r\n",
                         0),
            too_large + "END\r\n");
  // A block of gigabytes is answered before any of it is sent.
  EXPECT_EQ(session.feed("set h 0 0 4000000000\r\n", 0), too_large);
  EXPECT_FALSE(session.closed());
}

TEST(TextProtocol, UnterminatedLineIsRefusedThenClosed) {
  Rig rig;
  // A line at the bound is parsed (and rejected as a command) as usual.
  EXPECT_EQ(rig.run(std::string(kMaxLineBytes, 'a') + "\r\n"), "ERROR\r\n");
  // Past it, fed in chunks with no CRLF: refused and closed.
  const std::string chunk(1 << 20, 'a');
  std::string out;
  for (int i = 0; i < 8 && !rig.session.closed(); ++i) out += rig.run(chunk);
  EXPECT_EQ(out, "CLIENT_ERROR line too long\r\n");
  EXPECT_TRUE(rig.session.closed());
  EXPECT_EQ(rig.run("get k\r\n"), "");
}

TEST(TextProtocol, BinaryMagicFirstByteClosesWithoutReply) {
  Rig rig;
  EXPECT_EQ(rig.run(std::string("\x80\x00\x00\x01", 4)), "");
  EXPECT_TRUE(rig.session.closed());
  // Only the connection's first byte counts: later it is one more byte.
  Rig text;
  EXPECT_EQ(text.run("version\r\n\x80\r\n"),
            "VERSION proteus-1.0\r\nERROR\r\n");
  EXPECT_FALSE(text.session.closed());
}

// --- check order -------------------------------------------------------------

TEST(TextProtocol, StaleAndCorruptStoreIsRefusedAsCorrupt) {
  Rig rig;
  ASSERT_TRUE(rig.server.adopt_epoch(7));
  const std::string value = "late-and-rotted";
  // The checksum is verified first, so a store that is both stale (epoch
  // 3 < 7) and corrupt is refused as corrupt, never counted as stale.
  EXPECT_EQ(rig.run("set k 0 0 " + std::to_string(value.size()) + " " +
                    obs::encode_epoch_token(3) + " " +
                    obs::encode_checksum_token(crc32c(value) ^ 1u) + "\r\n" +
                    value + "\r\n"),
            "SERVER_ERROR bad-checksum\r\n");
  EXPECT_EQ(rig.server.stats().corrupt_set_rejects, 1u);
  EXPECT_EQ(rig.server.stale_epoch_rejects(), 0u);
  EXPECT_EQ(rig.server.cluster_epoch(), 7u);
}

}  // namespace
}  // namespace proteus::cache
