// Allocation guard for the simulator's request path. This binary replaces
// the global operator new with a counting one and runs a whole mini
// scenario. With in-place event cells, queue jobs kept in the station's own
// cells, move-only continuations between the tiers and a flat cache key
// index, a request allocates about 1.3 times (1.28 measured), for copies of
// its value and the cache's LRU list nodes; wrapping the continuations in
// nested std::functions cost about 8. The bound of 2 sits below 1.3 + 1, so
// one std::function that allocates once per request anywhere on the path
// fails it.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace proteus::cluster {
namespace {

TEST(SimAllocations, AtMostTwoPerCompletedRequest) {
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
  EXPECT_LE(per_request, 2.0);
}

}  // namespace
}  // namespace proteus::cluster
