// lg::mem — vector pooling and the RSS probes backing the Internet-scale
// memory work: recycled buffer capacity and sane /proc-derived RSS.
#include <gtest/gtest.h>

#include <vector>

#include "bgp/types.h"
#include "mem/pool.h"
#include "mem/rss.h"

namespace lg::mem {
namespace {

TEST(VectorPoolTest, RecyclesCapacity) {
  VectorPool<int> pool;
  auto v = pool.acquire();
  v.reserve(256);
  int* data = v.data();
  pool.release(std::move(v));
  EXPECT_EQ(pool.spare_count(), 1u);
  EXPECT_GE(pool.spare_bytes(), 256u * sizeof(int));
  auto w = pool.acquire();
  EXPECT_EQ(w.data(), data);  // same buffer came back
  EXPECT_TRUE(w.empty());     // but cleared
  EXPECT_EQ(pool.spare_count(), 0u);
}

TEST(VectorPoolTest, AcquireFromEmptyPoolIsFresh) {
  VectorPool<bgp::UpdateMessage> pool;
  auto v = pool.acquire();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(pool.spare_count(), 0u);
}

TEST(RssTest, ReportsPlausibleValues) {
  const std::size_t current = current_rss_bytes();
  const std::size_t peak = peak_rss_bytes();
  // Any running test binary is at least 1 MB resident and peak >= current
  // (modulo the probes reading at slightly different instants).
  EXPECT_GT(current, 1u << 20);
  EXPECT_GT(peak, 1u << 20);
  EXPECT_GE(peak + (1u << 20), current);
}

TEST(RssTest, GrowsAfterLargeAllocation) {
  const std::size_t before = peak_rss_bytes();
  std::vector<char> block(64u << 20);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  const std::size_t after = peak_rss_bytes();
  EXPECT_GE(after, before + (32u << 20));
}

}  // namespace
}  // namespace lg::mem
