#include "cache/prefetch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "replay_testing.hpp"

namespace charisma::cache {
namespace {

using fixtures::log_of;
using trace::EventKind;

trace::Record data(EventKind kind, cfs::NodeId node, cfs::FileId file,
                   std::int64_t offset, std::int64_t bytes) {
  trace::Record r;
  r.kind = kind;
  r.job = 1;
  r.node = node;
  r.file = file;
  r.offset = offset;
  r.bytes = bytes;
  return r;
}

ReplayLog sequential_block_reads(int blocks) {
  std::vector<trace::Record> t;
  for (int b = 0; b < blocks; ++b) {
    t.push_back(data(EventKind::kRead, 0, 1, b * 4096, 4096));
  }
  return log_of(t);
}

TEST(Prefetch, DepthZeroMatchesPlainCache) {
  const ReplayLog log = sequential_block_reads(64);
  PrefetchConfig cfg;
  cfg.prefetch_depth = 0;
  cfg.io_nodes = 2;
  cfg.total_buffers = 16;
  const auto r = simulate_prefetch(log, cfg);
  EXPECT_EQ(r.request_hits, 0u);  // every block is new
  EXPECT_EQ(r.prefetches_issued, 0u);
}

TEST(Prefetch, OneBlockLookaheadTurnsSequentialMissesIntoHits) {
  const ReplayLog log = sequential_block_reads(64);
  PrefetchConfig cfg;
  cfg.prefetch_depth = 1;
  cfg.io_nodes = 2;
  cfg.total_buffers = 16;
  const auto r = simulate_prefetch(log, cfg);
  // After warmup, block b+1 is already resident when requested.
  EXPECT_GT(r.hit_rate, 0.9);
  EXPECT_GT(r.prefetch_accuracy, 0.9);
}

TEST(Prefetch, SequentialDetectorSuppressesRandomPrefetch) {
  // Random far-apart single-block reads: the detector should not prefetch.
  std::vector<trace::Record> t;
  std::int64_t off = 0;
  for (int i = 0; i < 50; ++i) {
    off = (off + 1000 * 4096) % (100000 * 4096);
    t.push_back(data(EventKind::kRead, 0, 1, off, 100));
  }
  PrefetchConfig with_detector;
  with_detector.prefetch_depth = 2;
  with_detector.sequential_detector = true;
  const auto detected = simulate_prefetch(log_of(t), with_detector);
  PrefetchConfig blind = with_detector;
  blind.sequential_detector = false;
  const auto blind_r = simulate_prefetch(log_of(t), blind);
  EXPECT_EQ(detected.prefetches_issued, 0u);
  EXPECT_GT(blind_r.prefetches_issued, 40u);
  EXPECT_LT(blind_r.prefetch_accuracy, 0.1);
}

TEST(Prefetch, InterleavedSubBlockStreamBenefits) {
  // Two nodes interleave small records through a file: block-level access
  // is sequential in aggregate, so lookahead helps both of them.
  std::vector<trace::Record> t;
  for (int rec = 0; rec < 256; ++rec) {
    t.push_back(
        data(EventKind::kRead, rec % 2, 1, rec * 1024, 1024));
  }
  PrefetchConfig cfg;
  cfg.prefetch_depth = 1;
  cfg.io_nodes = 2;
  cfg.total_buffers = 8;
  const auto with = simulate_prefetch(log_of(t), cfg);
  cfg.prefetch_depth = 0;
  const auto without = simulate_prefetch(log_of(t), cfg);
  EXPECT_GT(with.hit_rate, without.hit_rate);
}

TEST(Prefetch, DescribeMentionsAccuracy) {
  const auto r = simulate_prefetch(sequential_block_reads(4), {});
  EXPECT_NE(r.describe().find("accuracy"), std::string::npos);
}

// ---- Write-behind ----------------------------------------------------------

TEST(WriteBehind, CoalescesSmallWritesPerBlock) {
  std::vector<trace::Record> t;
  // 16 writes of 256 B into one 4 KB block: write-through = 16 disk
  // writes, write-behind = 1.
  for (int i = 0; i < 16; ++i) {
    t.push_back(data(EventKind::kWrite, 0, 1, i * 256, 256));
  }
  WriteBehindConfig cfg;
  cfg.io_nodes = 1;
  const auto r = simulate_write_behind(log_of(t), cfg);
  EXPECT_EQ(r.write_requests, 16u);
  EXPECT_EQ(r.disk_writes_through, 16u);
  EXPECT_EQ(r.disk_writes_behind, 1u);
  EXPECT_NEAR(r.reduction(), 15.0 / 16.0, 1e-9);
}

TEST(WriteBehind, LargeWritesGainNothing) {
  std::vector<trace::Record> t;
  for (int i = 0; i < 8; ++i) {
    t.push_back(
        data(EventKind::kWrite, 0, 1, i * 4096, 4096));
  }
  WriteBehindConfig cfg;
  cfg.io_nodes = 1;
  const auto r = simulate_write_behind(log_of(t), cfg);
  EXPECT_EQ(r.disk_writes_through, 8u);
  EXPECT_EQ(r.disk_writes_behind, 8u);
  EXPECT_DOUBLE_EQ(r.reduction(), 0.0);
}

TEST(WriteBehind, TinyBufferEvictsEarly) {
  std::vector<trace::Record> t;
  // Alternate writes to two blocks; a 1-buffer cache ping-pongs.
  for (int i = 0; i < 10; ++i) {
    t.push_back(
        data(EventKind::kWrite, 0, 1, (i % 2) * 4096, 256));
  }
  WriteBehindConfig cfg;
  cfg.io_nodes = 1;
  cfg.buffers_per_node = 1;
  const auto r = simulate_write_behind(log_of(t), cfg);
  EXPECT_EQ(r.disk_writes_behind, 10u);  // every write evicts the other
  cfg.buffers_per_node = 2;
  const auto r2 = simulate_write_behind(log_of(t), cfg);
  EXPECT_EQ(r2.disk_writes_behind, 2u);  // both coalesce fully
  cfg.buffers_per_node = 0;  // no buffer: every block written is a disk write
  const auto r0 = simulate_write_behind(log_of(t), cfg);
  EXPECT_EQ(r0.blocks_touched, 10u);
  EXPECT_EQ(r0.disk_writes_behind, 10u);
  EXPECT_DOUBLE_EQ(r0.reduction(), 0.0);
}

TEST(WriteBehind, ReadsAreIgnored) {
  std::vector<trace::Record> t;
  t.push_back(data(EventKind::kRead, 0, 1, 0, 4096));
  const auto r = simulate_write_behind(log_of(t), {});
  EXPECT_EQ(r.write_requests, 0u);
  EXPECT_EQ(r.blocks_touched, 0u);
}

}  // namespace
}  // namespace charisma::cache
