// Allocation guard for the wire path. This binary replaces the global
// operator new with a counting one, as sim_allocation_test does, and counts
// the heap allocations one command costs at two depths:
//   * the session: a warmed 1-shard TextProtocolSession fed a 100 B get
//     hit, a 4 KiB get hit carrying the C echo token and a 4 KiB stamped
//     set, each in one chunk;
//   * the round trip: MemcacheConnection::get and ::set against an
//     in-process one-worker MemcacheDaemon, counting the whole process
//     (client, daemon worker and kernel-facing buffers alike).
// Parsing in place, appending every reply to one string per batch, copying
// a hit from the item straight into that reply and reusing the client's
// request and receive buffers leave (measured): the reply string, the
// value string a client get returns, a set's payload and its item's LRU
// node. Each bound sits less than one above that count, so one more heap
// copy or temporary per command fails it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "cache/text_protocol.h"
#include "client/memcache_client.h"
#include "common/hash.h"
#include "net/memcache_daemon.h"
#include "obs/span.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, free() would meet a pointer from
// operator new there, which -Wmismatched-new-delete reports.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace proteus {
namespace {

constexpr int kWarmup = 20;
constexpr int kRounds = 200;

// Allocations per call of `op`, after kWarmup unmeasured calls.
template <class Op>
double allocations_per_call(const char* what, Op op) {
  for (int i = 0; i < kWarmup; ++i) op();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kRounds; ++i) op();
  const double per_call =
      static_cast<double>(g_allocations.load() - before) / kRounds;
  std::printf("%-34s %.2f allocations per command\n", what, per_call);
  return per_call;
}

const std::string kSmall(100, 's');
const std::string kPage(4096, 'p');

TEST(WireAllocations, SessionCommands) {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 16 << 20;
  cache::ShardedCacheServer engine(cfg, 1);
  engine.set("small", kSmall, 1, 0, 0, crc32c(kSmall));
  engine.set("page", kPage, 1, 0, 0, crc32c(kPage));
  cache::TextProtocolSession session(engine);

  const std::string set_page = "set page 0 0 4096 " +
                               obs::encode_checksum_token(crc32c(kPage)) +
                               "\r\n" + kPage + "\r\n";
  std::size_t replied = 0;
  const double get_small = allocations_per_call("session: 100 B get hit", [&] {
    replied += session.feed("get small\r\n", 1).size();
  });
  const double get_page =
      allocations_per_call("session: 4 KiB get hit, C echo", [&] {
        replied += session.feed("get page C00000000\r\n", 1).size();
      });
  const double set = allocations_per_call("session: 4 KiB stamped set", [&] {
    replied += session.feed(set_page, 1).size();
  });
  EXPECT_GT(replied, 0u);
  // The reply string.
  EXPECT_LE(get_small, 1.5);
  EXPECT_LE(get_page, 1.5);
  // The payload and the new item's LRU node ("STORED\r\n" fits inline).
  EXPECT_LE(set, 2.5);
}

TEST(WireAllocations, RoundTripThroughADaemon) {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 16 << 20;
  net::MemcacheDaemon daemon(cfg, 0, net::monotonic_now, /*threads=*/1);
  ASSERT_TRUE(daemon.ok());
  std::thread server([&daemon] { daemon.run(); });
  {
    client::MemcacheConnection conn(daemon.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.set("small", kSmall, 0, 0, false, 0, true));
    ASSERT_TRUE(conn.set("page", kPage, 0, 0, false, 0, true));

    std::size_t got = 0;
    const double get_small =
        allocations_per_call("round trip: 100 B get", [&] {
          got += conn.get("small", 0, false, 0, true).value_or("").size();
        });
    const double get_page =
        allocations_per_call("round trip: 4 KiB get", [&] {
          got += conn.get("page", 0, false, 0, true).value_or("").size();
        });
    const double set = allocations_per_call("round trip: 4 KiB set", [&] {
      got += conn.set("page", kPage, 0, 0, false, 0, true) ? 1 : 0;
    });
    EXPECT_EQ(got, static_cast<std::size_t>(kWarmup + kRounds) *
                       (kSmall.size() + kPage.size() + 1));
    // The daemon's reply string and the value the get returns.
    EXPECT_LE(get_small, 2.5);
    EXPECT_LE(get_page, 2.5);
    // The daemon's payload and LRU node.
    EXPECT_LE(set, 2.5);
  }
  daemon.stop();
  server.join();
}

}  // namespace
}  // namespace proteus
