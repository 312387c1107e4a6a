#include "cache/stack_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "cache/block_cache.hpp"
#include "util/rng.hpp"

namespace charisma::cache {
namespace {

BlockKey key(std::int64_t block) { return {1, block}; }

/// Reuse bits by definition: a forward scan for kReuseEarlier, a backward
/// one for kReuseLater.
std::vector<unsigned> reuse_oracle(const std::vector<BlockKey>& keys) {
  const auto less = [](const BlockKey& a, const BlockKey& b) {
    return a.file != b.file ? a.file < b.file : a.block < b.block;
  };
  std::vector<unsigned> bits(keys.size(), 0);
  std::set<BlockKey, decltype(less)> seen(less);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!seen.insert(keys[i]).second) bits[i] |= kReuseEarlier;
  }
  seen.clear();
  for (std::size_t i = keys.size(); i-- > 0;) {
    if (!seen.insert(keys[i]).second) bits[i] |= kReuseLater;
  }
  return bits;
}

/// Block numbers mixing a hot set, recently fresh blocks and brand-new
/// ones, so first, last and single-use references are all common.
std::int64_t next_block(util::Rng& rng, std::int64_t& fresh) {
  if (rng.chance(0.35)) return static_cast<std::int64_t>(rng.uniform(8));
  if (rng.chance(0.5) && fresh > 8) {
    return fresh - 1 - static_cast<std::int64_t>(rng.uniform(
                           static_cast<std::uint64_t>(std::min<std::int64_t>(
                               fresh - 8, 48))));
  }
  return fresh++;
}

// The textbook access string a, b, c, b, a, d, a, c has stack distances
// cold, cold, cold, 1, 2, cold, 1, 3.  With capacities {1, 2, 4} that
// pins each access's bucket: the index of the smallest capacity above the
// distance, or 3 (miss_bucket) for cold / too deep.
TEST(SegmentedLruStack, HandComputedAccessString) {
  SegmentedLruStack stack({1, 2, 4});
  ASSERT_EQ(stack.miss_bucket(), 3u);
  const std::int64_t a = 0, b = 1, c = 2, d = 3;

  EXPECT_EQ(stack.access(key(a)), 3u);  // cold
  EXPECT_EQ(stack.access(key(b)), 3u);  // cold
  EXPECT_EQ(stack.access(key(c)), 3u);  // cold
  EXPECT_EQ(stack.access(key(b)), 1u);  // distance 1: hits capacity 2 up
  EXPECT_EQ(stack.access(key(a)), 2u);  // distance 2: hits capacity 4 only
  EXPECT_EQ(stack.access(key(d)), 3u);  // cold
  EXPECT_EQ(stack.access(key(a)), 1u);  // distance 1
  EXPECT_EQ(stack.access(key(c)), 2u);  // distance 3: hits capacity 4 only
  EXPECT_EQ(stack.size(), 4u);
}

TEST(SegmentedLruStack, PeekDoesNotPromote) {
  SegmentedLruStack stack({1, 2, 4});
  stack.touch(key(0));
  stack.touch(key(1));
  stack.touch(key(2));
  EXPECT_EQ(stack.peek(key(0)), 2u);  // distance 2
  EXPECT_EQ(stack.peek(key(0)), 2u);  // unchanged: peek left the stack alone
  EXPECT_EQ(stack.peek(key(9)), stack.miss_bucket());
  stack.touch(key(0));
  EXPECT_EQ(stack.peek(key(0)), 0u);
  EXPECT_EQ(stack.peek(key(2)), 1u);  // 0 moved above it
}

TEST(SegmentedLruStack, EvictsPastTheLargestCapacity) {
  SegmentedLruStack stack({1, 2});
  stack.touch(key(0));
  stack.touch(key(1));
  stack.touch(key(2));  // pushes 0 past capacity 2: evicted
  EXPECT_EQ(stack.size(), 2u);
  EXPECT_EQ(stack.peek(key(0)), stack.miss_bucket());
  EXPECT_EQ(stack.peek(key(1)), 1u);
  EXPECT_EQ(stack.peek(key(2)), 0u);
  // Re-touching the evicted block is a cold access again.
  EXPECT_EQ(stack.access(key(0)), stack.miss_bucket());
}

TEST(SegmentedLruStack, ZeroCapacityGetsSkippedBucketZero) {
  // Capacity 0 never hits: bucket 0 must never be reported, and every
  // other bucket index must line up with the original capacity list.
  SegmentedLruStack stack({0, 2});
  ASSERT_EQ(stack.miss_bucket(), 2u);
  EXPECT_EQ(stack.access(key(0)), 2u);  // cold
  EXPECT_EQ(stack.access(key(0)), 1u);  // resident: hits capacity 2 only
  EXPECT_EQ(stack.access(key(1)), 2u);  // cold
  EXPECT_EQ(stack.access(key(0)), 1u);
}

// The inclusion property, checked exhaustively against the real cache: for
// every capacity c_i, "bucket <= i" must equal BlockCache(c_i, LRU)'s hit
// result on the same access, step by step over a long random key sequence.
// A second stack fed the oracle's reuse bits must report the same bucket
// and hold the same blocks at every step.
TEST(SegmentedLruStack, MatchesBlockCacheHitsForEveryCapacity) {
  const std::vector<std::size_t> capacities = {1, 2, 4, 8, 16};
  util::Rng rng(123);
  std::vector<BlockKey> keys;
  std::int64_t fresh = 8;
  for (int i = 0; i < 20000; ++i) keys.push_back(key(next_block(rng, fresh)));
  const std::vector<unsigned> reuse = reuse_oracle(keys);

  SegmentedLruStack stack(capacities);
  SegmentedLruStack hinted(capacities);
  std::vector<BlockCache> caches;
  caches.reserve(capacities.size());
  for (const std::size_t c : capacities) caches.emplace_back(c, Policy::kLru);

  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t bucket = stack.access(keys[i]);
    ASSERT_EQ(hinted.access(keys[i], reuse[i]), bucket)
        << "step " << i << " block " << keys[i].block << " bits " << reuse[i];
    ASSERT_EQ(hinted.size(), stack.size()) << "step " << i;
    for (std::size_t c = 0; c < capacities.size(); ++c) {
      const bool cache_hit = caches[c].access(keys[i], 0);
      EXPECT_EQ(bucket <= c, cache_hit) << "step " << i << " block "
                                        << keys[i].block << " capacity "
                                        << capacities[c];
    }
  }
}

// The FIFO group pass against per-capacity BlockCache FIFO replays on a
// stream with multi-block requests over several files and two I/O nodes,
// zero capacity included.  The log's reuse bits equal the oracle's, so the
// pass runs hinted exactly as the sweeps do.
TEST(FifoGroup, MatchesBlockCacheOnARandomStream) {
  const std::vector<std::size_t> per_node = {0, 2, 4, 8};
  IoNodeSimConfig shape;
  shape.io_nodes = 2;
  shape.policy = Policy::kFifo;

  std::vector<detail::ReplayOp> ops;
  std::vector<BlockKey> keys;
  util::Rng rng(7);
  std::int64_t fresh = 8;
  for (int i = 0; i < 5000; ++i) {
    detail::ReplayOp op;
    op.file = static_cast<FileId>(1 + rng.uniform(3));
    op.job = 1;
    op.node = 0;
    op.offset = next_block(rng, fresh) * util::kBlockSize;
    // One to three blocks per request.
    op.bytes = static_cast<std::int64_t>(1 + rng.uniform(3)) *
               util::kBlockSize;
    op.is_read = true;
    op.read_only_session = true;
    ops.push_back(op);
    const auto [first, last] = detail::span_of(op);
    for (std::int64_t b = first; b <= last; ++b) keys.push_back({op.file, b});
  }
  const ReplayLog log(ops);
  std::vector<unsigned> bits;
  log.for_each_with_reuse([&](const detail::ReplayOp& op, BlockReuse reuse) {
    const auto [first, last] = detail::span_of(op);
    for (std::int64_t b = first; b <= last; ++b) {
      bits.push_back(reuse.at(static_cast<std::size_t>(b - first)));
    }
  });
  ASSERT_EQ(bits, reuse_oracle(keys));

  const auto grouped = detail::fifo_io_group(log, shape, per_node);
  std::vector<std::vector<BlockCache>> caches(per_node.size());
  for (std::size_t c = 0; c < per_node.size(); ++c) {
    for (int n = 0; n < shape.io_nodes; ++n) {
      caches[c].emplace_back(per_node[c], Policy::kFifo);
    }
  }
  std::vector<std::uint64_t> block_hits(per_node.size(), 0);
  std::vector<std::uint64_t> request_hits(per_node.size(), 0);
  for (const auto& op : ops) {
    const auto [first, last] = detail::span_of(op);
    for (std::size_t c = 0; c < caches.size(); ++c) {
      bool full_hit = true;
      for (std::int64_t b = first; b <= last; ++b) {
        if (caches[c][static_cast<std::size_t>(b % shape.io_nodes)].access(
                {op.file, b}, op.node)) {
          ++block_hits[c];
        } else {
          full_hit = false;
        }
      }
      if (full_hit) ++request_hits[c];
    }
  }
  for (std::size_t c = 0; c < per_node.size(); ++c) {
    EXPECT_EQ(grouped[c].block_hits, block_hits[c]) << "capacity "
                                                    << per_node[c];
    EXPECT_EQ(grouped[c].request_hits, request_hits[c]);
    EXPECT_EQ(grouped[c].requests, ops.size());
    EXPECT_EQ(grouped[c].block_accesses, keys.size());
  }
  EXPECT_GT(block_hits.back(), 0u);
}

}  // namespace
}  // namespace charisma::cache
