// The compact replay-op codec (varint/delta chunks) and the tiered
// ReplayOpSink behind it: decoded ops must be field-identical to the raw
// structs, and a spill-backed ReplayLog must replay the exact stream the
// independent reference filter (fixtures::reference_ops) produces, whatever
// the budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/replay.hpp"
#include "replay_testing.hpp"
#include "trace/record.hpp"
#include "trace/spill.hpp"

namespace charisma::cache {
namespace {

using detail::ReplayOp;

/// Field-wise equality: padding bytes make memcmp on the struct unreliable.
[[nodiscard]] bool same_op(const ReplayOp& a, const ReplayOp& b) {
  return a.file == b.file && a.job == b.job && a.node == b.node &&
         a.offset == b.offset && a.bytes == b.bytes &&
         a.is_read == b.is_read &&
         a.read_only_session == b.read_only_session;
}

[[nodiscard]] std::vector<ReplayOp> roundtrip(const std::vector<ReplayOp>& ops) {
  std::vector<std::uint8_t> bytes;
  detail::encode_ops(ops.data(), ops.size(), bytes);
  std::vector<ReplayOp> out(ops.size());
  const std::size_t used =
      detail::decode_ops(bytes.data(), bytes.size(), ops.size(), out.data());
  EXPECT_EQ(used, bytes.size());
  return out;
}

void expect_roundtrip(const std::vector<ReplayOp>& ops) {
  const std::vector<ReplayOp> back = roundtrip(ops);
  ASSERT_EQ(back.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // read_only_session is deliberately not encoded; decoded ops carry false.
    ReplayOp want = ops[i];
    want.read_only_session = false;
    EXPECT_TRUE(same_op(back[i], want)) << "op " << i;
  }
}

TEST(ReplayCodec, SequentialSameSessionRunEncodesOneByteOps) {
  std::vector<ReplayOp> ops;
  std::int64_t off = 0;
  for (int i = 0; i < 64; ++i) {
    ops.push_back({7, 3, 5, off, 4096, true, false});
    off += 4096;
  }
  std::vector<std::uint8_t> bytes;
  detail::encode_ops(ops.data(), ops.size(), bytes);
  // First op pays for the session/node/bytes varints; every later op is
  // same-session, sequential, same-bytes, same-node: exactly one tag byte.
  EXPECT_LT(bytes.size(), ops.size() + 16);
  expect_roundtrip(ops);
}

TEST(ReplayCodec, MixedPatternsRoundTrip) {
  std::vector<ReplayOp> ops;
  // Session switches, interleaved nodes, rewrites (negative offset deltas),
  // byte-size churn, reads and writes.
  ops.push_back({1, 1, 0, 0, 100, true, false});
  ops.push_back({1, 1, 0, 100, 100, true, false});   // sequential
  ops.push_back({1, 1, 0, 0, 100, false, false});    // seek back (negative)
  ops.push_back({2, 1, 3, 500, 9, false, false});    // new file, new node
  ops.push_back({2, 1, 3, 509, 17, true, false});    // bytes change
  ops.push_back({1, 2, 3, 0, 17, true, false});      // new job, same file id
  ops.push_back({cfs::kNoFile, cfs::kNoJob, 0, 0, 1, false, false});
  expect_roundtrip(ops);
}

TEST(ReplayCodec, ExtremeValuesRoundTrip) {
  const std::int64_t big = std::int64_t{1} << 60;
  std::vector<ReplayOp> ops;
  ops.push_back({1 << 30, 1 << 20, 1000, big, big / 2, true, false});
  ops.push_back({1 << 30, 1 << 20, 1000, -big, 1, false, false});
  ops.push_back({0, 0, 0, 0, big, true, false});
  expect_roundtrip(ops);
}

TEST(ReplayCodec, DecodeRejectsTruncatedInput) {
  std::vector<ReplayOp> ops{{7, 3, 5, 1234, 56, true, false}};
  std::vector<std::uint8_t> bytes;
  detail::encode_ops(ops.data(), ops.size(), bytes);
  ASSERT_GT(bytes.size(), 1u);
  ReplayOp out;
  EXPECT_THROW(
      (void)detail::decode_ops(bytes.data(), bytes.size() - 1, 1, &out),
      std::runtime_error);
}

// ---- The sink + spill + log pipeline against a reference filter. ----

/// A synthetic postprocessed record stream exercising the filter (non-data
/// kinds, zero-byte requests) and the codec (sessions, strides, rewrites).
[[nodiscard]] std::vector<trace::Record> synthetic_stream(int n) {
  std::vector<trace::Record> records;
  for (int i = 0; i < n; ++i) {
    trace::Record r;
    r.job = 1 + (i / 97) % 5;
    r.file = 10 + (i / 31) % 7;
    r.node = i % 13;
    r.offset = (i % 5 == 0) ? 0 : static_cast<std::int64_t>(i) * 512;
    r.bytes = (i % 11 == 0) ? 0 : 512 + (i % 3) * 1024;  // some filtered out
    r.kind = (i % 7 == 0)   ? trace::EventKind::kOpen
             : (i % 2 == 0) ? trace::EventKind::kRead
                            : trace::EventKind::kWrite;
    r.timestamp = i;
    records.push_back(r);
  }
  return records;
}

/// Spills the first `n` records of the synthetic stream under a
/// `budget_bytes` memory tier and expects the log to replay the reference
/// ops.  Returns the memory tier's encoded payload bytes.
std::size_t expect_log_matches_reference(std::int64_t budget_bytes, int n) {
  const std::vector<trace::Record> records = synthetic_stream(n);
  const std::set<SessionKey> read_only{{1, 10}, {2, 12}, {4, 16}};
  const std::vector<ReplayOp> want =
      fixtures::reference_ops(records, read_only);

  trace::SpillBudget budget(budget_bytes);
  ReplayOpSinkOptions opts;
  opts.budget = &budget;
  ReplayOpSink sink(opts);
  for (const auto& r : records) sink.on_record(r);
  ReplayOpSpill spill = sink.finish();
  EXPECT_EQ(spill.count(), want.size());
  std::size_t resident = 0;
  for (const ReplayOpChunk& c : spill.chunks()) {
    if (!c.where.on_disk()) resident += c.size;
  }

  const ReplayLog log(std::move(spill), read_only);
  std::vector<ReplayOp> got;
  std::size_t max_chunk = 0;
  log.for_each_chunk([&](const ReplayOp* ops, std::size_t count) {
    max_chunk = std::max(max_chunk, count);
    got.insert(got.end(), ops, ops + count);
  });
  EXPECT_LE(max_chunk, ReplayLog::kChunkOps);
  EXPECT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (!same_op(got[i], want[i])) {
      ADD_FAILURE() << "op " << i;
      break;
    }
  }
  return resident;
}

TEST(ReplayOpSinkTiers, AllMemoryBudgetMatchesReference) {
  expect_log_matches_reference(std::int64_t{64} << 20, 5000);
}

TEST(ReplayOpSinkTiers, ZeroBudgetAllDiskMatchesReference) {
  expect_log_matches_reference(0, 5000);
}

TEST(ReplayOpSinkTiers, MixedBudgetMatchesReference) {
  // Roughly one encoded chunk's worth of budget, so the stream splits
  // mid-way and the predictor reset at the memory/disk seam is exercised.
  expect_log_matches_reference(50000, 20000);
}

TEST(ReplayOpSinkTiers, MultiChunkStreamCrossesChunkBoundaries) {
  // > 2 x kChunkOps surviving ops forces several chunks in each tier.
  expect_log_matches_reference(4000, 3 * 4096 * 2);
}

TEST(ReplayOpSinkTiers, ResidentChunksSpanPageLogSegments) {
  // About 6 encoded bytes per surviving op: the resident chunks fill more
  // than one PageLog segment.
  const std::size_t resident =
      expect_log_matches_reference(std::int64_t{64} << 20, 1000000);
  EXPECT_GT(resident, trace::PageLog::kSegmentBytes);
}

TEST(ReplayOpSinkTiers, MixedBudgetActuallySplitsTiers) {
  const std::vector<trace::Record> records = synthetic_stream(20000);
  trace::SpillBudget budget(50000);
  ReplayOpSinkOptions opts;
  opts.budget = &budget;
  ReplayOpSink sink(opts);
  for (const auto& r : records) sink.on_record(r);
  const ReplayOpSpill spill = sink.finish();
  EXPECT_GT(spill.mem_chunks(), 0u);
  EXPECT_GT(spill.disk_chunks(), 0u);
  EXPECT_EQ(spill.mem_chunks() + spill.disk_chunks(), spill.chunks().size());
  // The resident chunks are a stream prefix, and the disk tier holds the
  // rest as bare payloads, back to back.
  bool seen_disk = false;
  std::int64_t disk_payload = 0;
  for (const ReplayOpChunk& c : spill.chunks()) {
    if (c.where.on_disk()) {
      EXPECT_EQ(c.where.offset, disk_payload);
      disk_payload += c.size;
      seen_disk = true;
    }
    EXPECT_EQ(c.where.on_disk(), seen_disk);
  }
  EXPECT_GT(spill.disk_bytes(), 0);
  EXPECT_EQ(spill.disk_bytes(), disk_payload);
}

TEST(ReplayOpSinkTiers, EmptyStreamYieldsEmptySpill) {
  ReplayOpSink sink;
  ReplayOpSpill spill = sink.finish();
  EXPECT_EQ(spill.count(), 0u);
  const std::set<SessionKey> read_only;
  const ReplayLog log(std::move(spill), read_only);
  std::size_t calls = 0;
  log.for_each_chunk(
      [&calls](const ReplayOp*, std::size_t n) { calls += n; });
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace charisma::cache
