// The replay log's reuse bits (BlockReuse) against a brute-force oracle, in
// every construction mode, and the hinted sweep kernels over an all-disk
// log against the unhinted per-config replays.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cache/replay.hpp"
#include "cache/simulators.hpp"
#include "trace/record.hpp"
#include "trace/spill.hpp"
#include "util/rng.hpp"

namespace charisma::cache {
namespace {

using detail::ReplayOp;

/// A random op stream: several files, requests spanning one to a few
/// blocks at arbitrary byte offsets, half of them in a small block range
/// per file (blocks repeat across ops, nodes and jobs) and half in a wide
/// one (blocks are often used once).
[[nodiscard]] std::vector<ReplayOp> random_ops(std::uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<ReplayOp> ops;
  for (int i = 0; i < n; ++i) {
    ReplayOp op;
    op.file = static_cast<FileId>(1 + rng.uniform(5));
    op.job = static_cast<JobId>(1 + rng.uniform(3));
    op.node = static_cast<NodeId>(rng.uniform(4));
    const std::uint64_t blocks = rng.chance(0.5) ? 24 : 4096;
    op.offset =
        static_cast<std::int64_t>(rng.uniform(blocks * util::kBlockSize));
    op.bytes = static_cast<std::int64_t>(1 + rng.uniform(3 * util::kBlockSize));
    op.is_read = rng.chance(0.7);
    op.read_only_session = op.is_read && op.file <= 3;
    ops.push_back(op);
  }
  return ops;
}

/// The block accesses of `ops` at util::kBlockSize, in stream order.
[[nodiscard]] std::vector<BlockKey> block_accesses(
    const std::vector<ReplayOp>& ops) {
  std::vector<BlockKey> keys;
  for (const ReplayOp& op : ops) {
    const auto [first, last] = detail::span_of(op, util::kBlockSize);
    for (std::int64_t b = first; b <= last; ++b) keys.push_back({op.file, b});
  }
  return keys;
}

/// The definition, by brute force: each access scans the whole stream.
[[nodiscard]] std::vector<unsigned> oracle_bits(
    const std::vector<BlockKey>& keys) {
  std::vector<unsigned> bits(keys.size(), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = 0; j < keys.size(); ++j) {
      if (j == i || !(keys[j] == keys[i])) continue;
      bits[i] |= j < i ? kReuseEarlier : kReuseLater;
    }
  }
  return bits;
}

/// The bits a log hands its traversal at `block_size`, flattened.
[[nodiscard]] std::vector<unsigned> log_bits(const ReplayLog& log,
                                             std::int64_t block_size) {
  std::vector<unsigned> bits;
  log.for_each_with_reuse(block_size,
                          [&](const ReplayOp& op, BlockReuse reuse) {
                            const auto [first, last] =
                                detail::span_of(op, block_size);
                            for (std::int64_t b = first; b <= last; ++b) {
                              bits.push_back(
                                  reuse.at(static_cast<std::size_t>(b - first)));
                            }
                          });
  return bits;
}

/// `ops` through a ReplayOpSink under `budget_bytes` (0: every chunk on
/// disk), as the study's merge would spill them.
[[nodiscard]] ReplayOpSpill spill_of(const std::vector<ReplayOp>& ops,
                                     trace::SpillBudget& budget) {
  ReplayOpSinkOptions options;
  options.budget = &budget;
  ReplayOpSink sink(options);
  for (const ReplayOp& op : ops) {
    trace::Record r;
    r.kind = op.is_read ? trace::EventKind::kRead : trace::EventKind::kWrite;
    r.file = op.file;
    r.job = op.job;
    r.node = op.node;
    r.offset = op.offset;
    r.bytes = op.bytes;
    sink.on_record(r);
  }
  return sink.finish();
}

/// The (job, file) sessions random_ops marks read-only.
[[nodiscard]] std::set<SessionKey> read_only_of(
    const std::vector<ReplayOp>& ops) {
  std::set<SessionKey> read_only;
  for (const ReplayOp& op : ops) {
    if (op.read_only_session) read_only.emplace(op.job, op.file);
  }
  return read_only;
}

void expect_oracle_bits(const ReplayLog& log,
                        const std::vector<ReplayOp>& ops) {
  ASSERT_TRUE(log.has_reuse_bits());
  const std::vector<unsigned> want = oracle_bits(block_accesses(ops));
  const std::vector<unsigned> got = log_bits(log, util::kBlockSize);
  ASSERT_EQ(got.size(), want.size());
  std::size_t both = 0, neither = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "block access " << i;
    both += want[i] == kReuseUnknown ? 1 : 0;
    neither += want[i] == 0 ? 1 : 0;
  }
  // The stream exercises every combination, not only the common ones.
  EXPECT_GT(both, 0u);
  EXPECT_GT(neither, 0u);
}

TEST(ReplayReuseBits, InMemoryLogMatchesBruteForce) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const std::vector<ReplayOp> ops = random_ops(seed, 600);
    expect_oracle_bits(ReplayLog(ops), ops);
  }
}

TEST(ReplayReuseBits, AllDiskSpillMatchesBruteForce) {
  // Over kChunkOps ops, so the bits run across decoded chunk seams.
  const std::vector<ReplayOp> ops = random_ops(4, 5000);
  trace::SpillBudget budget(0);
  ReplayOpSpill spill = spill_of(ops, budget);
  ASSERT_EQ(spill.mem_chunks(), 0u);
  ASSERT_GT(spill.disk_chunks(), 1u);
  ASSERT_FALSE(spill.decode_resident());
  expect_oracle_bits(ReplayLog(std::move(spill), read_only_of(ops)), ops);
}

TEST(ReplayReuseBits, DecodeResidentSpillMatchesBruteForce) {
  const std::vector<ReplayOp> ops = random_ops(5, 5000);
  trace::SpillBudget budget(std::int64_t{64} << 20);
  ReplayOpSpill spill = spill_of(ops, budget);
  ASSERT_TRUE(spill.decode_resident());
  expect_oracle_bits(ReplayLog(std::move(spill), read_only_of(ops)), ops);
}

TEST(ReplayReuseBits, OtherBlockSizesReadUnknown) {
  const std::vector<ReplayOp> ops = random_ops(6, 200);
  const ReplayLog log(ops);
  ASSERT_TRUE(log.has_reuse_bits());
  for (const unsigned bits : log_bits(log, 2 * util::kBlockSize)) {
    ASSERT_EQ(bits, kReuseUnknown);
  }
}

void expect_same(const IoNodeSimResult& a, const IoNodeSimResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.request_hits, b.request_hits);
  EXPECT_EQ(a.block_accesses, b.block_accesses);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.filtered_by_compute, b.filtered_by_compute);
}

/// Grouped against per-config on one runner: LRU and FIFO grids (a zero
/// per-node count included), single-point LRU shapes at other I/O-node
/// counts, a §4.8 front pair, and the fig8 points.
void expect_grouped_matches_per_config(const SweepRunner& runner) {
  std::vector<IoNodeSimConfig> io;
  for (const Policy policy : {Policy::kLru, Policy::kFifo}) {
    for (const std::size_t total : {2u, 8u, 20u, 40u}) {
      IoNodeSimConfig cfg;
      cfg.io_nodes = 4;
      cfg.total_buffers = total;
      cfg.policy = policy;
      io.push_back(cfg);
    }
  }
  for (const int io_nodes : {1, 3}) {
    IoNodeSimConfig cfg;
    cfg.io_nodes = io_nodes;
    cfg.total_buffers = 12;
    io.push_back(cfg);
  }
  for (const std::size_t front : {0u, 1u}) {
    IoNodeSimConfig cfg;
    cfg.io_nodes = 2;
    cfg.total_buffers = 16;
    cfg.compute_buffers_per_node = front;
    io.push_back(cfg);
  }
  const auto grouped = runner.run_io(io, SweepMode::kGrouped);
  const auto reference = runner.run_io(io, SweepMode::kPerConfig);
  for (std::size_t i = 0; i < io.size(); ++i) {
    SCOPED_TRACE("io config " + std::to_string(i));
    expect_same(grouped[i], reference[i]);
  }

  std::vector<ComputeCacheConfig> compute(3);
  compute[0].buffers_per_node = 1;
  compute[1].buffers_per_node = 4;
  compute[2].buffers_per_node = 16;
  const auto c_grouped = runner.run_compute(compute, SweepMode::kGrouped);
  const auto c_reference = runner.run_compute(compute, SweepMode::kPerConfig);
  for (std::size_t i = 0; i < compute.size(); ++i) {
    EXPECT_EQ(c_grouped[i].reads, c_reference[i].reads) << i;
    EXPECT_EQ(c_grouped[i].hits, c_reference[i].hits) << i;
    EXPECT_EQ(c_grouped[i].job_hit_rates, c_reference[i].job_hit_rates) << i;
  }
}

TEST(ReplayReuseBits, HintedKernelsMatchReplaysOverAnAllDiskSpill) {
  const std::vector<ReplayOp> ops = random_ops(8, 6000);
  trace::SpillBudget budget(0);
  expect_grouped_matches_per_config(
      SweepRunner(spill_of(ops, budget), read_only_of(ops)));
}

TEST(ReplayReuseBits, FarOffsetGivesTheBitsUp) {
  // One request a terabyte into a file would need a dense array the
  // stream's accesses do not justify: the log keeps no bits, so every
  // access reads kReuseUnknown, and the kernels still match the replays.
  std::vector<ReplayOp> ops = random_ops(7, 300);
  ops[150].offset = std::int64_t{1} << 40;
  const ReplayLog log(ops);
  EXPECT_FALSE(log.has_reuse_bits());
  for (const unsigned bits : log_bits(log, util::kBlockSize)) {
    ASSERT_EQ(bits, kReuseUnknown);
  }
  trace::SpillBudget budget(std::int64_t{64} << 20);
  expect_grouped_matches_per_config(
      SweepRunner(spill_of(ops, budget), read_only_of(ops)));
}

}  // namespace
}  // namespace charisma::cache
