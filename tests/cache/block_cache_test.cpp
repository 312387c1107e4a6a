#include "cache/block_cache.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace charisma::cache {
namespace {

TEST(BlockCache, ZeroCapacityNeverHits) {
  BlockCache c(0, Policy::kLru);
  EXPECT_FALSE(c.access({1, 0}, 0));
  EXPECT_FALSE(c.access({1, 0}, 0));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.accesses(), 2u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(BlockCache, HitOnResidentBlock) {
  BlockCache c(2, Policy::kLru);
  EXPECT_FALSE(c.access({1, 0}, 0));
  EXPECT_TRUE(c.access({1, 0}, 0));
  EXPECT_TRUE(c.contains({1, 0}));
  EXPECT_FALSE(c.contains({1, 1}));
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(BlockCache, DistinctFilesDistinctBlocks) {
  BlockCache c(4, Policy::kLru);
  (void)c.access({1, 0}, 0);
  EXPECT_FALSE(c.access({2, 0}, 0));
  EXPECT_FALSE(c.access({1, 1}, 0));
  EXPECT_EQ(c.size(), 3u);
}

TEST(BlockCache, LruEvictsLeastRecentlyUsed) {
  BlockCache c(2, Policy::kLru);
  (void)c.access({1, 0}, 0);  // A
  (void)c.access({1, 1}, 0);  // B
  (void)c.access({1, 0}, 0);  // touch A -> B is LRU
  (void)c.access({1, 2}, 0);  // C evicts B
  EXPECT_TRUE(c.contains({1, 0}));
  EXPECT_FALSE(c.contains({1, 1}));
  EXPECT_TRUE(c.contains({1, 2}));
}

TEST(BlockCache, FifoIgnoresHitsForEviction) {
  BlockCache c(2, Policy::kFifo);
  (void)c.access({1, 0}, 0);  // A inserted first
  (void)c.access({1, 1}, 0);  // B
  (void)c.access({1, 0}, 0);  // hit on A does NOT refresh it
  (void)c.access({1, 2}, 0);  // C evicts A (oldest insertion)
  EXPECT_FALSE(c.contains({1, 0}));
  EXPECT_TRUE(c.contains({1, 1}));
  EXPECT_TRUE(c.contains({1, 2}));
}

TEST(BlockCache, LruAndFifoDivergeOnReReference) {
  // The canonical pattern where LRU beats FIFO: a hot block re-referenced
  // while a stream flows past.
  const auto run = [](Policy policy) {
    BlockCache c(4, policy);
    std::uint64_t hits = 0;
    for (std::int64_t i = 0; i < 100; ++i) {
      hits += c.access({1, 0}, 0);       // hot block
      (void)c.access({2, i}, 0);          // stream
    }
    return hits;
  };
  EXPECT_GT(run(Policy::kLru), run(Policy::kFifo));
  EXPECT_EQ(run(Policy::kLru), 99u);  // always resident under LRU
}

TEST(BlockCache, IpAwareEvictsBroadcastConsumedBlocks) {
  BlockCache c(2, Policy::kInterprocessAware);
  // Block A consumed by 3 distinct nodes; block B by one node.
  (void)c.access({1, 0}, 0);
  (void)c.access({1, 0}, 1);
  (void)c.access({1, 0}, 2);
  (void)c.access({1, 1}, 0);
  // A was touched more recently than B, but A served 3 nodes: evict A.
  (void)c.access({1, 2}, 5);
  EXPECT_FALSE(c.contains({1, 0}));
  EXPECT_TRUE(c.contains({1, 1}));
}

TEST(BlockCache, CapacityOneDegeneratesToMostRecent) {
  BlockCache c(1, Policy::kLru);
  (void)c.access({1, 0}, 0);
  (void)c.access({1, 1}, 0);
  EXPECT_FALSE(c.contains({1, 0}));
  EXPECT_TRUE(c.contains({1, 1}));
  EXPECT_EQ(c.size(), 1u);
}

// Backward-shift deletion must pull an entry back over a gap only when its
// home lies cyclically at or before the gap — the case that goes wrong is a
// probe chain running off the table's end into bucket 0.  Fill the last two
// buckets' chains past the end, then erase every key in many orders.
TEST(BlockIndex, BackwardShiftEraseAcrossTheWrapAround) {
  const std::size_t buckets = BlockIndex(8).bucket_count();
  ASSERT_EQ(buckets, 16u);
  const auto home = [buckets](const BlockKey& k) {
    return BlockKeyHash{}(k) & (buckets - 1);
  };
  // Three keys homed at the last bucket and two at the one before overflow
  // into buckets 0..2; keys homed at 0 and 1 then queue behind them.
  std::vector<BlockKey> keys;
  for (const std::size_t want : {14u, 15u, 15u, 14u, 15u, 0u, 0u, 1u}) {
    BlockKey k{1, 0};
    for (std::int64_t b = 0;; ++b) {
      k.block = b;
      if (home(k) != want) continue;
      bool taken = false;
      for (const BlockKey& other : keys) taken = taken || other == k;
      if (!taken) break;
    }
    keys.push_back(k);
  }

  util::Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    BlockIndex index(8);
    for (std::uint32_t i = 0; i < keys.size(); ++i) index.insert(keys[i], i);
    std::vector<std::uint32_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    std::vector<bool> erased(keys.size(), false);
    for (const std::uint32_t victim : order) {
      index.erase(keys[victim]);
      erased[victim] = true;
      for (std::uint32_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(index.find(keys[i]), erased[i] ? BlockIndex::kAbsent : i)
            << "round " << round << " key " << i << " after erasing "
            << victim;
      }
    }
  }
}

TEST(BlockCache, SizeNeverExceedsCapacity) {
  BlockCache c(8, Policy::kFifo);
  for (std::int64_t i = 0; i < 100; ++i) (void)c.access({1, i}, 0);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.capacity(), 8u);
}

}  // namespace
}  // namespace charisma::cache
