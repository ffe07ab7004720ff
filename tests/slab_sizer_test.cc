#include "cache/slab_sizer.h"

#include <gtest/gtest.h>

#include "cache/cache_server.h"

namespace proteus::cache {
namespace {

TEST(SlabSizer, ChunksGrowGeometrically) {
  SlabSizer sizer;
  ASSERT_GE(sizer.num_classes(), 10u);
  for (std::size_t i = 1; i < sizer.num_classes(); ++i) {
    EXPECT_GT(sizer.chunk_size(static_cast<int>(i)),
              sizer.chunk_size(static_cast<int>(i - 1)));
  }
  EXPECT_EQ(sizer.chunk_size(0), 96u);
  EXPECT_EQ(sizer.chunk_size(static_cast<int>(sizer.num_classes()) - 1),
            1u << 20);
}

TEST(SlabSizer, ChunksAreAligned) {
  SlabSizer sizer;
  for (std::size_t i = 0; i < sizer.num_classes(); ++i) {
    EXPECT_EQ(sizer.chunk_size(static_cast<int>(i)) % 8, 0u) << i;
  }
}

TEST(SlabSizer, ClassSelectionIsTight) {
  SlabSizer sizer;
  // An item exactly at a chunk boundary uses that class; one byte more
  // spills to the next.
  const std::size_t chunk = sizer.chunk_size(3);
  EXPECT_EQ(sizer.chunk_size_for(chunk), chunk);
  EXPECT_GT(sizer.chunk_size_for(chunk + 1), chunk);
  EXPECT_EQ(sizer.chunk_size_for(1), 96u);
}

TEST(SlabSizer, OversizedItemsRejected) {
  SlabSizer sizer;
  EXPECT_EQ(sizer.class_for((1 << 20) + 1), -1);
  EXPECT_EQ(sizer.chunk_size_for((1 << 20) + 1), 0u);
  EXPECT_EQ(sizer.class_for(1 << 20),
            static_cast<int>(sizer.num_classes()) - 1);
}

TEST(SlabSizer, FragmentationBounded) {
  SlabSizer sizer;
  // Geometric growth factor 1.25 bounds waste at < 25% + alignment slack.
  for (std::size_t bytes = 96; bytes <= (1 << 18); bytes += 37) {
    EXPECT_LT(sizer.fragmentation_for(bytes), 0.30) << bytes;
  }
}

TEST(SlabSizer, CustomGrowthFactor) {
  SlabSizer coarse(SlabSizer::Options{64, 2.0, 4096});
  EXPECT_EQ(coarse.chunk_size_for(64), 64u);
  EXPECT_EQ(coarse.chunk_size_for(65), 128u);
  EXPECT_EQ(coarse.chunk_size_for(129), 256u);
  EXPECT_EQ(coarse.chunk_size_for(4096), 4096u);
}

TEST(SlabAccounting, CacheChargesChunkSizes) {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;
  cfg.slab_accounting = true;
  cfg.per_item_overhead = 56;
  CacheServer cache(cfg);
  cache.set("k", std::string(10, 'x'), 0);  // 1 + 10 + 56 = 67 -> 96 chunk
  EXPECT_EQ(cache.bytes_used(), 96u);
}

TEST(SlabAccounting, FragmentationReducesEffectiveCapacity) {
  // Items sized just past a chunk boundary waste nearly a whole class step;
  // slab accounting must therefore fit FEWER items than exact accounting.
  CacheConfig exact;
  exact.memory_budget_bytes = 64 << 10;
  exact.per_item_overhead = 0;
  CacheConfig slab = exact;
  slab.slab_accounting = true;

  CacheServer exact_cache(exact);
  CacheServer slab_cache(slab);
  const std::string value(121, 'v');  // 122 bytes with 1-char key -> 152 chunk
  for (int i = 0; i < 1000; ++i) {
    exact_cache.set(std::string(1, 'a' + i % 26) + std::to_string(i), value, 0);
    slab_cache.set(std::string(1, 'a' + i % 26) + std::to_string(i), value, 0);
  }
  EXPECT_LT(slab_cache.item_count(), exact_cache.item_count());
}

TEST(SlabAccounting, OversizedItemRejectedBySlabLimit) {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 16 << 20;
  cfg.slab_accounting = true;
  CacheServer cache(cfg);
  // Above the default 1 MB largest class, well inside the 16 MB budget.
  cache.set("big", std::string(2 << 20, 'x'), 0);
  EXPECT_EQ(cache.item_count(), 0u);
  cache.set("ok", std::string(1024, 'x'), 0);
  EXPECT_EQ(cache.item_count(), 1u);
}

}  // namespace
}  // namespace proteus::cache
