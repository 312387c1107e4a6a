#include "cache/simulators.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "replay_testing.hpp"
#include "util/rng.hpp"

namespace charisma::cache {
namespace {

using fixtures::log_of;
using trace::EventKind;

trace::Record data(EventKind kind, cfs::JobId job, cfs::NodeId node,
                   cfs::FileId file, std::int64_t offset, std::int64_t bytes) {
  trace::Record r;
  r.kind = kind;
  r.job = job;
  r.node = node;
  r.file = file;
  r.offset = offset;
  r.bytes = bytes;
  return r;
}

std::set<SessionKey> ro_for(cfs::JobId job, std::initializer_list<cfs::FileId> files) {
  std::set<SessionKey> out;
  for (auto f : files) out.emplace(job, f);
  return out;
}

TEST(ComputeCacheSim, ConsecutiveSmallReadsHitAfterFirstBlockTouch) {
  std::vector<trace::Record> t;
  // 8 reads of 1024 bytes: blocks 0,0,0,0,1,1,1,1 -> 6 of 8 full hits.
  for (int i = 0; i < 8; ++i) {
    t.push_back(data(EventKind::kRead, 1, 0, 1, i * 1024, 1024));
  }
  const auto r = simulate_compute_cache(log_of(t, ro_for(1, {1})), {});
  EXPECT_EQ(r.reads, 8u);
  EXPECT_EQ(r.hits, 6u);
  ASSERT_EQ(r.job_hit_rates.size(), 1u);
  EXPECT_DOUBLE_EQ(r.job_hit_rates[0], 0.75);
}

TEST(ComputeCacheSim, NonReadOnlyFilesAreIgnored) {
  std::vector<trace::Record> t;
  for (int i = 0; i < 4; ++i) {
    t.push_back(data(EventKind::kRead, 1, 0, 1, i * 100, 100));
  }
  const auto r = simulate_compute_cache(log_of(t), {});  // nothing read-only
  EXPECT_EQ(r.reads, 0u);
  EXPECT_TRUE(r.job_hit_rates.empty());
}

TEST(ComputeCacheSim, WritesNeverCountAsReads) {
  std::vector<trace::Record> t;
  t.push_back(data(EventKind::kWrite, 1, 0, 1, 0, 100));
  t.push_back(data(EventKind::kRead, 1, 0, 1, 100, 100));
  const auto r = simulate_compute_cache(log_of(t, ro_for(1, {1})), {});
  EXPECT_EQ(r.reads, 1u);
}

TEST(ComputeCacheSim, LargeReadsSpanningBlocksMiss) {
  std::vector<trace::Record> t;
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 64 * 1024));
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 64 * 1024));
  ComputeCacheConfig cfg;
  cfg.buffers_per_node = 1;
  const auto one = simulate_compute_cache(log_of(t, ro_for(1, {1})), cfg);
  EXPECT_EQ(one.hits, 0u);  // one buffer can never hold 16 blocks
  cfg.buffers_per_node = 32;
  const auto many = simulate_compute_cache(log_of(t, ro_for(1, {1})), cfg);
  EXPECT_EQ(many.hits, 1u);  // second pass fully cached
}

TEST(ComputeCacheSim, CachesArePerNodeAndPerJob) {
  std::vector<trace::Record> t;
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  t.push_back(data(EventKind::kRead, 1, 1, 1, 0, 100));  // other node
  t.push_back(data(EventKind::kRead, 2, 0, 1, 0, 100));  // other job
  const auto r = simulate_compute_cache(
      log_of(t, {{1, 1}, {2, 1}}), {});
  EXPECT_EQ(r.hits, 0u);  // no cross-node or cross-job hits
}

TEST(ComputeCacheSim, FractionsComputedOverJobs) {
  std::vector<trace::Record> t;
  // Job 1: 100% hit rate after warmup (9/10); job 2: all misses.
  for (int i = 0; i < 10; ++i) {
    t.push_back(data(EventKind::kRead, 1, 0, 1, i * 100, 100));
  }
  for (int i = 0; i < 10; ++i) {
    t.push_back(
        data(EventKind::kRead, 2, 0, 2, i * 100000, 100));
  }
  const auto r = simulate_compute_cache(log_of(t, {{1, 1}, {2, 2}}), {});
  EXPECT_DOUBLE_EQ(r.fraction_jobs_zero, 0.5);
  EXPECT_DOUBLE_EQ(r.fraction_jobs_above_75, 0.5);
}

// ---- I/O-node simulation ---------------------------------------------------

TEST(IoNodeSim, RequestHitNeedsEveryBlockResident) {
  std::vector<trace::Record> t;
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 8192));   // blocks 0,1
  t.push_back(data(EventKind::kRead, 1, 1, 1, 0, 4096));   // block 0: hit
  t.push_back(data(EventKind::kRead, 1, 2, 1, 4096, 8192));  // 1,2: miss
  IoNodeSimConfig cfg;
  cfg.io_nodes = 2;
  cfg.total_buffers = 8;
  const auto r = simulate_io_cache(log_of(t), cfg);
  EXPECT_EQ(r.requests, 3u);
  EXPECT_EQ(r.request_hits, 1u);
  EXPECT_EQ(r.block_accesses, 2u + 1u + 2u);
  EXPECT_EQ(r.block_hits, 2u);  // block 0 once, block 1 once
}

TEST(IoNodeSim, BlocksMapToIoNodesRoundRobin) {
  std::vector<trace::Record> t;
  // Touch block 0 then block 2: with 2 I/O nodes both land on node 0's
  // cache; with capacity 1 per node the second evicts the first.
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  t.push_back(data(EventKind::kRead, 1, 0, 1, 2 * 4096, 100));
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  IoNodeSimConfig cfg;
  cfg.io_nodes = 2;
  cfg.total_buffers = 2;  // one buffer per I/O node
  const auto r = simulate_io_cache(log_of(t), cfg);
  EXPECT_EQ(r.request_hits, 0u);  // block 0 was evicted by block 2
  // Same pattern but block 1 (other I/O node) in between: no interference.
  std::vector<trace::Record> t2;
  t2.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  t2.push_back(data(EventKind::kRead, 1, 0, 1, 4096, 100));
  t2.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  const auto r2 = simulate_io_cache(log_of(t2), cfg);
  EXPECT_EQ(r2.request_hits, 1u);
}

TEST(IoNodeSim, WritesPopulateTheCache) {
  std::vector<trace::Record> t;
  t.push_back(data(EventKind::kWrite, 1, 0, 1, 0, 1000));
  t.push_back(data(EventKind::kRead, 1, 1, 1, 0, 1000));
  IoNodeSimConfig cfg;
  cfg.io_nodes = 1;
  cfg.total_buffers = 10;
  const auto r = simulate_io_cache(log_of(t), cfg);
  EXPECT_EQ(r.request_hits, 1u);
}

TEST(IoNodeSim, FifoNeedsMoreBuffersThanLruOnReReference) {
  // Hot block kept alive by repeated touches while a stream passes.
  std::vector<trace::Record> t;
  for (int i = 0; i < 200; ++i) {
    t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
    t.push_back(
        data(EventKind::kRead, 1, 1, 2, i * 4096, 100));
  }
  IoNodeSimConfig cfg;
  cfg.io_nodes = 1;
  cfg.total_buffers = 8;
  cfg.policy = Policy::kLru;
  const auto lru = simulate_io_cache(log_of(t), cfg);
  cfg.policy = Policy::kFifo;
  const auto fifo = simulate_io_cache(log_of(t), cfg);
  EXPECT_GT(lru.request_hits, fifo.request_hits);
}

TEST(IoNodeSim, CombinedComputeCachesFilterIntraprocessHits) {
  std::vector<trace::Record> t;
  // One node streams small consecutive reads: most requests are absorbed
  // by a single front buffer.
  for (int i = 0; i < 32; ++i) {
    t.push_back(data(EventKind::kRead, 1, 0, 1, i * 512, 512));
  }
  IoNodeSimConfig cfg;
  cfg.io_nodes = 1;
  cfg.total_buffers = 16;
  const auto without = simulate_io_cache(log_of(t, ro_for(1, {1})), cfg);
  cfg.compute_buffers_per_node = 1;
  const auto with = simulate_io_cache(log_of(t, ro_for(1, {1})), cfg);
  EXPECT_EQ(without.filtered_by_compute, 0u);
  EXPECT_GT(with.filtered_by_compute, 20u);
  EXPECT_LT(with.requests, without.requests);
}

TEST(IoNodeSim, CombinedLeavesInterprocessLocality) {
  std::vector<trace::Record> t;
  // Two nodes alternate on the same blocks: the front caches miss (each
  // node sees each block for the first time... then again), but the I/O
  // node cache serves the second node.
  for (int i = 0; i < 16; ++i) {
    t.push_back(data(EventKind::kRead, 1, 0, 1, i * 4096, 4096));
    t.push_back(data(EventKind::kRead, 1, 1, 1, i * 4096, 4096));
  }
  IoNodeSimConfig cfg;
  cfg.io_nodes = 1;
  cfg.total_buffers = 64;
  cfg.compute_buffers_per_node = 1;
  const auto r = simulate_io_cache(log_of(t, ro_for(1, {1})), cfg);
  // Node 1's requests all hit at the I/O node.
  EXPECT_GE(r.request_hits, 16u);
}

TEST(IoNodeSim, EmptyTrace) {
  std::vector<trace::Record> t;
  const auto r = simulate_io_cache(log_of(t), {});
  EXPECT_EQ(r.requests, 0u);
  EXPECT_EQ(r.hit_rate, 0.0);
  EXPECT_FALSE(r.describe().empty());
}

class IoNodeCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(IoNodeCountSweep, HitRateInsensitiveToIoNodeSplit) {
  // The paper: "It made little difference whether the buffers were focused
  // on a few I/O nodes or spread over many."  With a shared-stream workload
  // the split only changes which cache holds which block.
  std::vector<trace::Record> t;
  util::Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const auto node = static_cast<cfs::NodeId>(rng.uniform(8));
    const auto block = static_cast<std::int64_t>(rng.uniform(64));
    t.push_back(
        data(EventKind::kRead, 1, node, 1, block * 4096, 512));
  }
  IoNodeSimConfig cfg;
  cfg.total_buffers = 200;
  cfg.io_nodes = GetParam();
  const auto r = simulate_io_cache(log_of(t), cfg);
  // 64 hot blocks against 200 buffers: nearly everything hits, regardless
  // of how the buffers are split.
  EXPECT_GT(r.hit_rate, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Splits, IoNodeCountSweep,
                         ::testing::Values(1, 2, 5, 10, 20));

}  // namespace
}  // namespace charisma::cache
