#include "cache/binary_protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cache/text_protocol.h"
#include "common/hash.h"
#include "obs/span.h"

namespace proteus::cache {
namespace {

using binary::Frame;
using binary::Opcode;
using binary::Status;

CacheConfig proto_config() {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  cfg.auto_size_digest = false;
  cfg.digest.num_counters = 1 << 14;
  cfg.digest.counter_bits = 4;
  cfg.digest.num_hashes = 4;
  return cfg;
}

struct Rig {
  ShardedCacheServer server{proto_config(), 1};
  BinaryProtocolSession session{server};

  // Sends one request and decodes the (first) response frame.
  Frame roundtrip(const Frame& request, SimTime now = 0) {
    const std::string out =
        session.feed(binary::encode_frame(request, binary::kRequestMagic), now);
    std::size_t consumed = 0;
    auto reply = binary::decode_frame(out, consumed);
    EXPECT_TRUE(reply.has_value());
    EXPECT_EQ(consumed, out.size());
    return reply.value_or(Frame{});
  }

  Frame make_set(std::string key, std::string value, std::uint32_t flags = 0,
                 std::uint64_t cas = 0) {
    Frame f;
    f.opcode = Opcode::kSet;
    f.key = std::move(key);
    f.value = std::move(value);
    binary::put_u32(f.extras, flags);
    binary::put_u32(f.extras, 0);  // expiry
    f.cas = cas;
    return f;
  }

  Frame make_get(std::string key, Opcode op = Opcode::kGet) {
    Frame f;
    f.opcode = op;
    f.key = std::move(key);
    return f;
  }
};

TEST(BinaryFrame, EncodeDecodeRoundTrip) {
  Frame f;
  f.opcode = Opcode::kSet;
  f.status_or_vbucket = 7;
  f.opaque = 0xdeadbeef;
  f.cas = 0x1122334455667788ull;
  f.extras = "EXTRAS!!";
  f.key = "the-key";
  f.value = std::string("binary\0value", 12);

  const std::string wire = binary::encode_frame(f, binary::kRequestMagic);
  EXPECT_EQ(wire.size(), binary::kHeaderSize + 8 + 7 + 12);
  std::size_t consumed = 0;
  const auto decoded = binary::decode_frame(wire, consumed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded->opcode, f.opcode);
  EXPECT_EQ(decoded->opaque, f.opaque);
  EXPECT_EQ(decoded->cas, f.cas);
  EXPECT_EQ(decoded->extras, f.extras);
  EXPECT_EQ(decoded->key, f.key);
  EXPECT_EQ(decoded->value, f.value);
}

TEST(BinaryFrame, PartialInputReturnsNothing) {
  Frame f;
  f.opcode = Opcode::kNoop;
  const std::string wire = binary::encode_frame(f, binary::kRequestMagic);
  std::size_t consumed = 0;
  EXPECT_FALSE(binary::decode_frame(wire.substr(0, 10), consumed).has_value());
  EXPECT_FALSE(
      binary::decode_frame(wire.substr(0, wire.size() - 1), consumed)
          .has_value());
}

TEST(BinaryFrame, BigEndianHelpers) {
  std::string out;
  binary::put_u32(out, 0x01020304u);
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04", 4));
  EXPECT_EQ(binary::get_u32(out, 0), 0x01020304u);
  std::string out64;
  binary::put_u64(out64, 0x0102030405060708ull);
  EXPECT_EQ(binary::get_u64(out64, 0), 0x0102030405060708ull);
}

TEST(BinaryProtocol, SetThenGet) {
  Rig rig;
  const Frame stored = rig.roundtrip(rig.make_set("foo", "hello", 42));
  EXPECT_EQ(stored.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  EXPECT_GT(stored.cas, 0u);

  const Frame got = rig.roundtrip(rig.make_get("foo"));
  EXPECT_EQ(got.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  EXPECT_EQ(got.value, "hello");
  ASSERT_EQ(got.extras.size(), 4u);
  EXPECT_EQ(binary::get_u32(got.extras, 0), 42u);  // flags round-trip
  EXPECT_EQ(got.cas, stored.cas);
}

TEST(BinaryProtocol, GetMissAndQuietGet) {
  Rig rig;
  const Frame miss = rig.roundtrip(rig.make_get("absent"));
  EXPECT_EQ(miss.status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyNotFound));
  // Quiet get: NO response at all on miss.
  Frame quiet = rig.make_get("absent", Opcode::kGetQ);
  EXPECT_EQ(rig.session.feed(
                binary::encode_frame(quiet, binary::kRequestMagic), 0),
            "");
}

TEST(BinaryProtocol, GetKEchoesKey) {
  Rig rig;
  rig.roundtrip(rig.make_set("foo", "v"));
  const Frame got = rig.roundtrip(rig.make_get("foo", Opcode::kGetK));
  EXPECT_EQ(got.key, "foo");
  EXPECT_EQ(got.value, "v");
}

TEST(BinaryProtocol, AddAndReplaceSemantics) {
  Rig rig;
  Frame add = rig.make_set("k", "x");
  add.opcode = Opcode::kAdd;
  EXPECT_EQ(rig.roundtrip(add).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kOk));
  EXPECT_EQ(rig.roundtrip(add).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyExists));
  Frame replace = rig.make_set("missing", "y");
  replace.opcode = Opcode::kReplace;
  EXPECT_EQ(rig.roundtrip(replace).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyNotFound));
}

TEST(BinaryProtocol, CasConditionalStore) {
  Rig rig;
  const Frame stored = rig.roundtrip(rig.make_set("k", "v1"));
  const std::uint64_t cas = stored.cas;

  // Store with the matching CAS succeeds and bumps the version.
  const Frame ok = rig.roundtrip(rig.make_set("k", "v2", 0, cas));
  EXPECT_EQ(ok.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  EXPECT_NE(ok.cas, cas);

  // The stale CAS now fails with KeyExists.
  const Frame conflict = rig.roundtrip(rig.make_set("k", "v3", 0, cas));
  EXPECT_EQ(conflict.status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyExists));
  const Frame got = rig.roundtrip(rig.make_get("k"));
  EXPECT_EQ(got.value, "v2");
}

TEST(BinaryProtocol, CasOnAbsentKeyIsNotFound) {
  Rig rig;
  const Frame reply = rig.roundtrip(rig.make_set("ghost", "v", 0, 99));
  EXPECT_EQ(reply.status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyNotFound));
}

TEST(BinaryProtocol, DeleteSemantics) {
  Rig rig;
  rig.roundtrip(rig.make_set("k", "v"));
  Frame del;
  del.opcode = Opcode::kDelete;
  del.key = "k";
  EXPECT_EQ(rig.roundtrip(del).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kOk));
  EXPECT_EQ(rig.roundtrip(del).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyNotFound));
}

TEST(BinaryProtocol, IncrementWithInitialValue) {
  Rig rig;
  Frame incr;
  incr.opcode = Opcode::kIncrement;
  incr.key = "counter";
  binary::put_u64(incr.extras, 5);    // delta
  binary::put_u64(incr.extras, 100);  // initial
  binary::put_u32(incr.extras, 0);    // expiry: create allowed
  const Frame first = rig.roundtrip(incr);
  EXPECT_EQ(first.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  EXPECT_EQ(binary::get_u64(first.value, 0), 100u);  // created at initial
  const Frame second = rig.roundtrip(incr);
  EXPECT_EQ(binary::get_u64(second.value, 0), 105u);
}

TEST(BinaryProtocol, IncrementNoCreateFlag) {
  Rig rig;
  Frame incr;
  incr.opcode = Opcode::kIncrement;
  incr.key = "counter";
  binary::put_u64(incr.extras, 1);
  binary::put_u64(incr.extras, 0);
  binary::put_u32(incr.extras, 0xffffffffu);  // do not create
  EXPECT_EQ(rig.roundtrip(incr).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyNotFound));
}

TEST(BinaryProtocol, DecrementClampsAtZero) {
  Rig rig;
  rig.roundtrip(rig.make_set("c", "3"));
  Frame decr;
  decr.opcode = Opcode::kDecrement;
  decr.key = "c";
  binary::put_u64(decr.extras, 10);
  binary::put_u64(decr.extras, 0);
  binary::put_u32(decr.extras, 0);
  EXPECT_EQ(binary::get_u64(rig.roundtrip(decr).value, 0), 0u);
}

TEST(BinaryProtocol, IncrementNonNumericFails) {
  Rig rig;
  rig.roundtrip(rig.make_set("s", "abc"));
  Frame incr;
  incr.opcode = Opcode::kIncrement;
  incr.key = "s";
  binary::put_u64(incr.extras, 1);
  binary::put_u64(incr.extras, 0);
  binary::put_u32(incr.extras, 0);
  EXPECT_EQ(rig.roundtrip(incr).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kDeltaBadValue));
}

TEST(BinaryProtocol, OpaqueIsEchoed) {
  Rig rig;
  Frame noop;
  noop.opcode = Opcode::kNoop;
  noop.opaque = 0xcafebabe;
  EXPECT_EQ(rig.roundtrip(noop).opaque, 0xcafebabeu);
}

TEST(BinaryProtocol, VersionQuitUnknown) {
  Rig rig;
  Frame version;
  version.opcode = Opcode::kVersion;
  EXPECT_EQ(rig.roundtrip(version).value, "proteus-1.0");

  Frame bogus;
  bogus.opcode = static_cast<Opcode>(0x7e);
  EXPECT_EQ(rig.roundtrip(bogus).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kUnknownCommand));

  Frame quit;
  quit.opcode = Opcode::kQuit;
  rig.roundtrip(quit);
  EXPECT_TRUE(rig.session.closed());
}

TEST(BinaryProtocol, SegmentedFrames) {
  Rig rig;
  const std::string wire =
      binary::encode_frame(rig.make_set("foo", "bar"), binary::kRequestMagic) +
      binary::encode_frame(rig.make_get("foo"), binary::kRequestMagic);
  std::string out;
  for (char c : wire) out += rig.session.feed(std::string_view(&c, 1), 0);
  // Two complete responses, the second carrying the value.
  std::size_t consumed = 0;
  auto first = binary::decode_frame(out, consumed);
  ASSERT_TRUE(first.has_value());
  auto second = binary::decode_frame(
      std::string_view(out).substr(consumed), consumed);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->value, "bar");
}

TEST(BinaryProtocol, DigestThroughBinaryGet) {
  Rig rig;
  for (int i = 0; i < 40; ++i) {
    rig.roundtrip(rig.make_set("page:" + std::to_string(i), "x"));
  }
  rig.roundtrip(rig.make_get(std::string(kSetBloomFilterKey)));
  const Frame blob = rig.roundtrip(rig.make_get(std::string(kGetBloomFilterKey)));
  EXPECT_EQ(blob.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  const bloom::BloomFilter digest = decode_digest(blob.value);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(digest.maybe_contains("page:" + std::to_string(i))) << i;
  }
}

TEST(BinaryProtocol, ReservedKeysNotStorable) {
  Rig rig;
  const Frame reply =
      rig.roundtrip(rig.make_set(std::string(kSetBloomFilterKey), "x"));
  EXPECT_EQ(reply.status_or_vbucket,
            static_cast<std::uint16_t>(Status::kNotStored));
}

TEST(BinaryProtocol, StatStreamEndsWithEmptyKey) {
  Rig rig;
  rig.roundtrip(rig.make_set("k", "v"));
  Frame stat;
  stat.opcode = Opcode::kStat;
  const std::string out =
      rig.session.feed(binary::encode_frame(stat, binary::kRequestMagic), 0);
  // Walk the response stream; the last frame must have an empty key.
  std::string_view rest(out);
  std::size_t frames = 0;
  Frame last;
  while (!rest.empty()) {
    std::size_t consumed = 0;
    auto f = binary::decode_frame(rest, consumed);
    ASSERT_TRUE(f.has_value());
    last = *f;
    rest.remove_prefix(consumed);
    ++frames;
  }
  EXPECT_GE(frames, 5u);
  EXPECT_TRUE(last.key.empty());
}

// --- end-to-end checksum extras ---------------------------------------------

TEST(BinaryProtocol, ChecksummedSetStampsAndGetEchoes) {
  Rig rig;
  const std::string value = "binary-integrity-payload";
  // SET with 12-byte extras: flags(4) expiry(4) crc32c(4).
  Frame set = rig.make_set("ck", value, /*flags=*/9);
  binary::put_u32(set.extras, crc32c(value));
  const Frame stored = rig.roundtrip(set);
  EXPECT_EQ(stored.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));

  // Stock GET (no extras): stock 4-byte reply extras, no checksum leak.
  const Frame plain = rig.roundtrip(rig.make_get("ck"));
  EXPECT_EQ(plain.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  ASSERT_EQ(plain.extras.size(), 4u);
  EXPECT_EQ(binary::get_u32(plain.extras, 0), 9u);
  EXPECT_EQ(plain.value, value);

  // GET with the 4-byte opt-in extras: reply widens to flags(4) crc32c(4).
  Frame get = rig.make_get("ck");
  binary::put_u32(get.extras, 0);  // reserved word, must send 0
  const Frame echoed = rig.roundtrip(get);
  EXPECT_EQ(echoed.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  ASSERT_EQ(echoed.extras.size(), 8u);
  EXPECT_EQ(binary::get_u32(echoed.extras, 0), 9u);
  EXPECT_EQ(binary::get_u32(echoed.extras, 4), crc32c(value));
  EXPECT_EQ(echoed.value, value);
}

TEST(BinaryProtocol, ChecksumMismatchRefusesTheSet) {
  Rig rig;
  const std::string value = "rotted-in-flight";
  Frame set = rig.make_set("bad", value);
  binary::put_u32(set.extras, crc32c(value) ^ 0x80u);
  const Frame refused = rig.roundtrip(set);
  EXPECT_EQ(refused.status_or_vbucket,
            static_cast<std::uint16_t>(Status::kBadChecksum));

  // The refused value must not have been stored.
  const Frame got = rig.roundtrip(rig.make_get("bad"));
  EXPECT_EQ(got.status_or_vbucket,
            static_cast<std::uint16_t>(Status::kKeyNotFound));
}

TEST(BinaryProtocol, UnstampedItemEchoesStockExtrasOnOptIn) {
  Rig rig;
  // Stored without a checksum: the opt-in GET must answer stock 4-byte
  // extras — there is no stamp to echo and none may be invented.
  rig.roundtrip(rig.make_set("plain", "no-stamp", /*flags=*/3));
  Frame get = rig.make_get("plain");
  binary::put_u32(get.extras, 0);
  const Frame got = rig.roundtrip(get);
  EXPECT_EQ(got.status_or_vbucket, static_cast<std::uint16_t>(Status::kOk));
  ASSERT_EQ(got.extras.size(), 4u);
  EXPECT_EQ(binary::get_u32(got.extras, 0), 3u);
}

TEST(BinaryProtocol, CorruptEpochPushIsRefusedAndLeavesTheFence) {
  Rig rig;
  ASSERT_EQ(rig.roundtrip(rig.make_set(std::string(kEpochKey), "5"))
                .status_or_vbucket,
            static_cast<std::uint16_t>(Status::kOk));
  // 12-byte extras stamp the payload; a push that fails its CRC is refused
  // before its payload is read as an epoch.
  Frame push = rig.make_set(std::string(kEpochKey), "9");
  binary::put_u32(push.extras, crc32c("9") ^ 1u);
  EXPECT_EQ(rig.roundtrip(push).status_or_vbucket,
            static_cast<std::uint16_t>(Status::kBadChecksum));
  EXPECT_EQ(rig.server.cluster_epoch(), 5u);
  EXPECT_EQ(rig.server.stats().corrupt_set_rejects, 1u);
}

// --- one executor behind both codecs -----------------------------------------

// Decodes every frame of a response stream.
std::vector<Frame> decode_all(std::string_view out) {
  std::vector<Frame> frames;
  while (!out.empty()) {
    std::size_t consumed = 0;
    auto f = binary::decode_frame(out, consumed);
    if (!f.has_value()) break;
    frames.push_back(std::move(*f));
    out.remove_prefix(consumed);
  }
  return frames;
}

TEST(CodecParity, StaleAndCorruptStoreGetsTheSameRefusalOnBothCodecs) {
  ShardedCacheServer engine(proto_config(), 1);
  ASSERT_TRUE(engine.adopt_epoch(7));
  TextProtocolSession text(engine);
  BinaryProtocolSession bin(engine);
  const std::string value = "late-and-rotted";
  const std::uint32_t wrong = crc32c(value) ^ 1u;

  // Checksum verify comes first on both codecs, so a store that is both
  // stale (epoch 3 < 7) and corrupt is refused as corrupt.
  EXPECT_EQ(text.feed("set k 0 0 " + std::to_string(value.size()) + " " +
                          obs::encode_epoch_token(3) + " " +
                          obs::encode_checksum_token(wrong) + "\r\n" +
                          value + "\r\n",
                      0),
            "SERVER_ERROR bad-checksum\r\n");
  Frame set;
  set.opcode = Opcode::kSet;
  set.key = "k";
  set.value = value;
  set.status_or_vbucket = 3;  // the epoch stamp
  binary::put_u32(set.extras, 0);
  binary::put_u32(set.extras, 0);
  binary::put_u32(set.extras, wrong);
  const auto replies =
      decode_all(bin.feed(binary::encode_frame(set, binary::kRequestMagic), 0));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status_or_vbucket,
            static_cast<std::uint16_t>(Status::kBadChecksum));

  EXPECT_EQ(engine.stats().corrupt_set_rejects, 2u);
  EXPECT_EQ(engine.stale_epoch_rejects(), 0u);
  EXPECT_EQ(engine.cluster_epoch(), 7u);
}

TEST(CodecParity, BinaryStatEmitsExactlyTheTextStats) {
  ShardedCacheServer engine(proto_config(), 4);
  TextProtocolSession text(engine);
  text.feed("set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\nget a\r\nget zz\r\n"
            "delete b\r\nget BLOOM_FILTER\r\n",
            0);

  std::vector<std::pair<std::string, std::string>> text_stats;
  const std::string lines = text.feed("stats\r\n", 0);
  std::size_t pos = 0;
  while (lines.compare(pos, 5, "STAT ") == 0) {
    const std::size_t eol = lines.find("\r\n", pos);
    const std::string line = lines.substr(pos + 5, eol - pos - 5);
    const std::size_t space = line.find(' ');
    text_stats.emplace_back(line.substr(0, space), line.substr(space + 1));
    pos = eol + 2;
  }
  ASSERT_EQ(lines.substr(pos), "END\r\n");

  BinaryProtocolSession bin(engine);
  Frame stat;
  stat.opcode = Opcode::kStat;
  const auto frames =
      decode_all(bin.feed(binary::encode_frame(stat, binary::kRequestMagic), 0));
  ASSERT_FALSE(frames.empty());
  EXPECT_TRUE(frames.back().key.empty());  // terminator
  std::vector<std::pair<std::string, std::string>> bin_stats;
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    bin_stats.emplace_back(frames[i].key, frames[i].value);
  }
  EXPECT_EQ(bin_stats, text_stats);
  EXPECT_EQ(text_stats.size(), 18u);
}

}  // namespace
}  // namespace proteus::cache
