// Allocation guard for the simulator's request path. This binary replaces
// the global operator new with a counting one and runs a whole mini
// scenario. With in-place event cells, a station's job carried in its
// completion event (only a waiting job takes one of the station's own
// cells), move-only continuations between the tiers, a flat cache key index,
// pooled web requests and cache-tier operations, and hits copied into
// their reused buffers, a request allocates about 0.36 times (measured):
// the database's value, and the value and LRU list node of each item a
// fill or migration stores. A heap copy of every hit cost about 0.9 more,
// nested std::function continuations about 8. The bound of 0.5 sits below
// 0.36 + 0.2, so a copy on the path of even one request in five fails it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "cluster/scenario.h"
#include "mini_scenario.h"

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

namespace proteus::cluster {
namespace {

TEST(SimAllocations, AtMostHalfPerCompletedRequest) {
  const ScenarioConfig cfg = mini_config(ScenarioKind::kProteus);
  const std::uint64_t before = g_allocations.load();
  const ScenarioResult r = run_scenario(cfg);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_GT(r.total_requests, 10'000u);
  const double per_request = static_cast<double>(allocations) /
                             static_cast<double>(r.total_requests);
  std::printf("%llu allocations over %llu requests: %.2f per request\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(r.total_requests), per_request);
  EXPECT_LE(per_request, 0.5);
}

}  // namespace
}  // namespace proteus::cluster
