// The spill writer, the spilled-trace reader, and the postprocessing merge
// that streams a spilled trace, checked against a sort; the format itself,
// checked against bytes frozen from the old codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "raw_trace.hpp"
#include "study_records.hpp"
#include "trace/postprocess.hpp"
#include "trace/spill.hpp"

#ifndef CHARISMA_TRACE_TEST_DATA_DIR
#error "CHARISMA_TRACE_TEST_DATA_DIR must point at tests/trace/data"
#endif

namespace charisma::trace {
namespace {

using fixtures::CollectSink;
using fixtures::file_bytes;
using fixtures::RawTrace;
using fixtures::resident;

/// The merge's oracle, independent of it: every record corrected by its
/// block's node fit, in concatenated block order, then stably sorted by
/// corrected timestamp — the order stream_postprocess promises.
std::vector<Record> sorted_by_corrected_time(const RawTrace& t) {
  const auto fits = fit_clocks(resident(t));
  std::vector<Record> out;
  for (const auto& b : t.blocks) {
    const auto fit = fits.find(b.node);
    for (Record r : b.records) {
      if (fit != fits.end()) r.timestamp = fit->second.apply(r.timestamp);
      out.push_back(r);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Record& a, const Record& b) {
                     return a.timestamp < b.timestamp;
                   });
  return out;
}

/// Fails at the first record where `got` and `want` differ in any byte.
void expect_same_records(const std::vector<Record>& got,
                         const std::vector<Record>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint8_t a[Record::kEncodedSize];
    std::uint8_t b[Record::kEncodedSize];
    want[i].encode(a);
    got[i].encode(b);
    ASSERT_EQ(0, std::memcmp(a, b, sizeof a))
        << "record " << i << ": expected node " << want[i].node << " at "
        << want[i].timestamp << ", got node " << got[i].node << " at "
        << got[i].timestamp;
  }
}

/// Byte-compares `got` against the oracle's order for `t`.
void expect_sorted_order(const std::vector<Record>& got, const RawTrace& t) {
  expect_same_records(got, sorted_by_corrected_time(t));
}

class SpillTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // Per-test name: ctest runs every test as its own concurrent process,
  // so a shared fixed path races across cases.
  std::string path_ =
      ::testing::TempDir() + "charisma_spill_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".chtr";

  /// `blocks` blocks of 8 records, round-robin over the 4 nodes in the
  /// order 2, 0, 3, 1.  Every node's block of one round carries the same
  /// stamps and local times, so all four fit the same clock and their
  /// records tie on corrected time; the stream order of the ties (node 2
  /// first) is not the node order.
  static RawTrace sample(int blocks) {
    constexpr NodeId kRoundOrder[] = {2, 0, 3, 1};
    RawTrace t;
    t.header.compute_nodes = 4;
    t.header.io_nodes = 2;
    t.header.block_size = 4096;
    t.header.seed = 99;
    t.header.trace_start = 0;
    t.header.trace_end = 100000;
    t.header.label = "spilled";
    for (int b = 0; b < blocks; ++b) {
      const MicroSec round = (b / 4) * 1000;
      TraceBlock block;
      block.node = kRoundOrder[b % 4];
      block.sent_local = round;
      block.recv_global = round + 50;
      for (int i = 0; i < 8; ++i) {
        Record r;
        r.kind = EventKind::kRead;
        r.node = block.node;
        r.offset = b;  // tells tied records apart
        r.timestamp = round + i;
        r.bytes = 100;
        block.records.push_back(r);
      }
      t.blocks.push_back(std::move(block));
    }
    return t;
  }

  /// Spills every block of `t` through a SpillWriter with no memory tier.
  static SpilledTrace spill(const RawTrace& t) {
    return fixtures::spill(t, SpillTarget::anonymous_in(::testing::TempDir()));
  }

  /// Saves a spill of `t` to path_ with the header's block count zeroed: the
  /// file a writer leaves when it dies after its frames but before it counts
  /// them.
  void save_unfinished(const RawTrace& t) {
    spill(t).save(path_);
    std::string bytes = file_bytes(path_);
    bytes.replace(fixtures::block_count_offset(t.header.label),
                  sizeof(std::uint64_t), sizeof(std::uint64_t), '\0');
    fixtures::write_file(path_, bytes);
  }
};

// ---- The format, frozen. ----
//
// data/frozen_sample.chtr holds the bytes TraceFile::write — the second
// codec of the format until it was deleted — wrote for frozen_sample(), and
// kFrozenDigest is TraceFile::digest of the same trace.  Every writer path
// must reproduce those bytes and that digest, and the reader must read them
// back, so the format is held to bytes frozen from the old codec rather than
// to itself.

const std::string kFrozenPath =
    std::string(CHARISMA_TRACE_TEST_DATA_DIR) + "/frozen_sample.chtr";
constexpr std::uint64_t kFrozenDigest = 0xdf2d3d625ba58660ULL;

/// Every record kind, a service-node block and an empty block, with field
/// values that fill most encoded bytes.  Changing anything here breaks the
/// frozen bytes.
RawTrace frozen_sample() {
  constexpr EventKind kDataKinds[] = {
      EventKind::kOpen,  EventKind::kRead,  EventKind::kWrite,
      EventKind::kSeek,  EventKind::kRead,  EventKind::kWrite,
      EventKind::kClose, EventKind::kDelete};
  RawTrace t;
  t.header.compute_nodes = 8;
  t.header.io_nodes = 2;
  t.header.block_size = 4096;
  t.header.seed = 0x5eedc0ffee000042ULL;
  t.header.trace_start = 1000;
  t.header.trace_end = 9876543210;
  t.header.label = "frozen .chtr sample";
  for (int b = 0; b < 12; ++b) {
    TraceBlock block;
    const bool service = b == 5;
    block.node = service ? kServiceNode : b % 8;
    block.sent_local = 1000 + MicroSec{b} * 250000;
    block.recv_global = service ? block.sent_local : block.sent_local + 300 + b;
    const int count = b == 7 ? 0 : 3 + b % 6;
    for (int i = 0; i < count; ++i) {
      Record r;
      r.kind = service ? (i % 2 == 0 ? EventKind::kJobStart
                                     : EventKind::kJobEnd)
                       : kDataKinds[(b + i) % 8];
      r.timestamp = block.sent_local - 1000 + i * 17;
      r.job = b / 3;
      r.file = 100 + (b * 31 + i) % 9;
      r.node = block.node;
      r.offset = (std::int64_t{b} << 33) + i * 4096 + 7;
      r.bytes = 512 * (i + 1) + b;
      r.aux = r.kind == EventKind::kOpen
                  ? pack_open_aux(0x5, cfs::IoMode::kIndependent)
                  : r.bytes + (std::int64_t{i} << 40);
      r.mode = static_cast<std::uint8_t>((b + i) % 4);
      block.records.push_back(r);
    }
    t.blocks.push_back(std::move(block));
  }
  return t;
}

/// Fails with the first differing byte offset unless `got` is the frozen
/// file's bytes.
void expect_frozen_bytes(const std::string& got) {
  const std::string want = file_bytes(kFrozenPath);
  ASSERT_FALSE(want.empty()) << "cannot read " << kFrozenPath;
  if (got == want) return;
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  ADD_FAILURE() << "bytes differ from " << kFrozenPath << " first at offset "
                << at << " (" << got.size() << " bytes written, "
                << want.size() << " frozen)";
}

// Every writer path — sync and async disk tiers, all-memory, all-disk and a
// mixed split — saves the frozen bytes and folds the frozen digest.
TEST_F(SpillTest, WriterMatchesTraceFileDigestAndBytes) {
  const RawTrace t = frozen_sample();
  // Memory-tier bytes of the first six blocks: a budget that splits the
  // stream after them.
  std::int64_t six_blocks = 0;
  for (int b = 0; b < 6; ++b) {
    six_blocks += static_cast<std::int64_t>(t.blocks[b].records.size() *
                                            Record::kEncodedSize) +
                  64;
  }
  struct Case {
    const char* name;
    std::int64_t budget;  // negative: no memory tier at all
    bool async;
    std::uint64_t mem_blocks;
  };
  const Case cases[] = {
      {"sync", -1, false, 0},
      {"async", -1, true, 0},
      {"all_memory", std::int64_t{1} << 20, false, t.blocks.size()},
      {"all_disk", 0, false, 0},
      {"mixed", six_blocks, false, 6},
      {"mixed_async", six_blocks, true, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SpillBudget budget(c.budget);
    SpillWriterOptions options;
    options.budget = c.budget >= 0 ? &budget : nullptr;
    options.async = c.async;
    const SpilledTrace s = fixtures::spill(
        t, SpillTarget::anonymous_in(::testing::TempDir()), options);
    EXPECT_EQ(s.write_stats().mem_blocks, c.mem_blocks);
    EXPECT_EQ(s.write_stats().disk_blocks, t.blocks.size() - c.mem_blocks);
    // The disk tier is scratch: encoded payloads only, no header or frames.
    EXPECT_EQ(s.write_stats().disk_bytes, s.disk_payload_bytes());
    EXPECT_EQ(s.digest(), kFrozenDigest);
    s.save(path_);
    expect_frozen_bytes(file_bytes(path_));
  }
}

TEST_F(SpillTest, OpensTraceFilesWrittenByTraceFileWrite) {
  const RawTrace want = frozen_sample();
  const SpilledTrace s = SpilledTrace::open(kFrozenPath);
  EXPECT_EQ(s.digest(), kFrozenDigest);
  EXPECT_EQ(s.header.compute_nodes, want.header.compute_nodes);
  EXPECT_EQ(s.header.io_nodes, want.header.io_nodes);
  EXPECT_EQ(s.header.block_size, want.header.block_size);
  EXPECT_EQ(s.header.seed, want.header.seed);
  EXPECT_EQ(s.header.trace_start, want.header.trace_start);
  EXPECT_EQ(s.header.trace_end, want.header.trace_end);
  EXPECT_EQ(s.header.label, want.header.label);
  EXPECT_EQ(s.record_count(), want.record_count());
  const RawTrace got = fixtures::load(s);
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (std::size_t b = 0; b < want.blocks.size(); ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(got.blocks[b].node, want.blocks[b].node);
    EXPECT_EQ(got.blocks[b].sent_local, want.blocks[b].sent_local);
    EXPECT_EQ(got.blocks[b].recv_global, want.blocks[b].recv_global);
    expect_same_records(got.blocks[b].records, want.blocks[b].records);
  }
  // Saving a reopened trace copies its frames from the file unchanged.
  s.save(path_);
  expect_frozen_bytes(file_bytes(path_));
}

TEST_F(SpillTest, StreamMatchesMaterializedPostprocess) {
  const RawTrace t = sample(12);
  const SpilledTrace s = spill(t);
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), t.record_count());
  expect_sorted_order(sink.records, t);
  // The memory tier streams the same order.
  CollectSink resident_sink;
  (void)stream_postprocess(resident(t), {&resident_sink});
  expect_sorted_order(resident_sink.records, t);
}

TEST_F(SpillTest, EmptySpillStreamsZeroRecords) {
  const RawTrace t = sample(0);
  const SpilledTrace s = spill(t);
  EXPECT_EQ(s.digest(), resident(t).digest());
  s.save(path_);
  EXPECT_EQ(SpilledTrace::open(path_).digest(), s.digest());
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), 0u);
  EXPECT_TRUE(sink.records.empty());
}

// The tolerant-reader contract for a saved spill: a zero block count hides
// no frame, so every complete frame is recovered, not treated as fatal.
TEST_F(SpillTest, UnfinishedSpillRecoversAllAppendedBlocks) {
  const RawTrace t = sample(10);
  save_unfinished(t);

  bool truncated = false;
  const SpilledTrace s =
      SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  EXPECT_TRUE(truncated);  // the count was never written
  EXPECT_EQ(s.blocks.size(), t.blocks.size());
  EXPECT_EQ(s.record_count(), t.record_count());

  // The recovered blocks still stream in postprocessed order.
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), t.record_count());
  expect_sorted_order(sink.records, t);
}

TEST_F(SpillTest, TornFinalBlockIsDroppedNotFatal) {
  const RawTrace t = sample(10);
  save_unfinished(t);
  const std::string bytes = file_bytes(path_);
  // Tear into the last block's payload.
  fixtures::write_file(path_, bytes.substr(0, bytes.size() - 30));

  bool truncated = false;
  const SpilledTrace s =
      SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(s.blocks.size(), t.blocks.size() - 1);
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}),
            t.record_count() - t.blocks.back().records.size());
}

TEST_F(SpillTest, StrictOpenOfUnfinishedSpillSeesDeclaredCount) {
  save_unfinished(sample(4));
  // Strict mode trusts the zero count: no blocks, no error.
  const SpilledTrace s = SpilledTrace::open(path_, /*tolerant=*/false);
  EXPECT_TRUE(s.blocks.empty());
}

// ---- The tiered memory/disk writer and the async disk path. ----

/// Streams `s` and checks the record bytes against the sort of `t`.
void expect_stream_matches(const SpilledTrace& s, const RawTrace& t) {
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), t.record_count());
  expect_sorted_order(sink.records, t);
}

/// Spills `t` into an anonymous target under `budget`, finished.
SpilledTrace spill_tiered(const RawTrace& t, SpillBudget& budget,
                          bool async = false) {
  SpillWriterOptions opts;
  opts.budget = &budget;
  opts.async = async;
  return fixtures::spill(t, SpillTarget::anonymous_in(::testing::TempDir()),
                         opts);
}

TEST_F(SpillTest, AllMemoryTierNeverTouchesDisk) {
  const RawTrace t = sample(10);
  // A spill directory that does not exist: the backing file cannot be made
  // there, so a spill that needs one throws.
  const SpillTarget missing = SpillTarget::anonymous_in(path_ + ".no_dir");
  SpillBudget none(0);
  SpillWriterOptions to_disk;
  to_disk.budget = &none;
  EXPECT_THROW((void)fixtures::spill(t, missing, to_disk), std::runtime_error);

  SpillBudget budget(1 << 20);  // far more than 10 blocks need
  SpillWriterOptions opts;
  opts.budget = &budget;
  const SpilledTrace s = fixtures::spill(t, missing, opts);
  EXPECT_EQ(s.write_stats().mem_blocks, t.blocks.size());
  EXPECT_EQ(s.write_stats().disk_blocks, 0u);
  EXPECT_EQ(s.write_stats().disk_bytes, 0);
  EXPECT_EQ(s.disk_payload_bytes(), 0);
  EXPECT_EQ(s.digest(), spill_tiered(t, none).digest());
  expect_stream_matches(s, t);
}

TEST_F(SpillTest, ZeroBudgetSendsEveryBlockToDisk) {
  const RawTrace t = sample(10);
  SpillBudget budget(0);
  const SpilledTrace s = spill_tiered(t, budget);
  EXPECT_EQ(s.write_stats().mem_blocks, 0u);
  EXPECT_EQ(s.write_stats().disk_blocks, t.blocks.size());
  EXPECT_GT(s.write_stats().disk_bytes, 0);
  EXPECT_EQ(s.digest(), resident(t).digest());
  expect_stream_matches(s, t);
}

TEST_F(SpillTest, MixedTierIsAPrefixSplitWithIdenticalDigest) {
  const RawTrace t = sample(12);
  // Each block reserves payload (8 records x 44 B) plus the fixed index
  // overhead; admit roughly half the stream.
  SpillBudget budget(5 * (8 * Record::kEncodedSize + 64));
  const SpilledTrace s = spill_tiered(t, budget);
  EXPECT_GT(s.write_stats().mem_blocks, 0u);
  EXPECT_GT(s.write_stats().disk_blocks, 0u);
  EXPECT_EQ(s.write_stats().mem_blocks + s.write_stats().disk_blocks,
            t.blocks.size());
  // Sticky overflow: the resident set is a stream prefix.
  bool seen_disk = false;
  for (const auto& b : s.blocks) {
    if (b.where.on_disk()) seen_disk = true;
    EXPECT_EQ(b.where.on_disk(), seen_disk);
  }
  EXPECT_EQ(s.digest(), resident(t).digest());
  expect_stream_matches(s, t);
}

TEST_F(SpillTest, AsyncWriterMatchesSyncByteForByte) {
  const RawTrace t = sample(16);
  std::string saved[2];
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    SpillWriterOptions opts;  // no budget: everything to disk
    opts.async = async;
    const SpilledTrace s = fixtures::spill(
        t, SpillTarget::anonymous_in(::testing::TempDir()), opts);
    EXPECT_EQ(s.write_stats().disk_blocks, t.blocks.size());
    EXPECT_EQ(s.digest(), resident(t).digest());
    s.save(path_);
    saved[async ? 1 : 0] = file_bytes(path_);
  }
  ASSERT_FALSE(saved[0].empty());
  EXPECT_EQ(saved[0], saved[1]);
}

TEST_F(SpillTest, AsyncWithMemoryTierMatchesDigestAndStream) {
  const RawTrace t = sample(20);
  SpillBudget budget(7 * (8 * Record::kEncodedSize + 64));
  const SpilledTrace s = spill_tiered(t, budget, /*async=*/true);
  EXPECT_GT(s.write_stats().mem_blocks, 0u);
  EXPECT_GT(s.write_stats().disk_blocks, 0u);
  EXPECT_EQ(s.digest(), resident(t).digest());
  expect_stream_matches(s, t);
}

// A memory tier bigger than one PageLog segment: blocks of uneven sizes
// leave segment tails unused, and every block must still digest, save and
// decode as the same blocks spilled to disk.
TEST_F(SpillTest, MemoryTierSpansSegments) {
  RawTrace t;
  t.header.compute_nodes = 16;
  t.header.io_nodes = 4;
  t.header.block_size = 4096;
  t.header.seed = 7;
  t.header.label = "segments";
  std::size_t payload = 0;
  for (int b = 0; payload <= 3 * PageLog::kSegmentBytes; ++b) {
    TraceBlock block;
    block.node = b % 16;
    block.sent_local = MicroSec{b} * 1000;
    block.recv_global = block.sent_local + 40;
    const int count = 200 + (b * 7919) % 1500;
    for (int i = 0; i < count; ++i) {
      Record r;
      r.kind = i % 3 == 0 ? EventKind::kWrite : EventKind::kRead;
      r.node = block.node;
      r.timestamp = block.sent_local + i;
      r.job = b % 5;
      r.file = (b + i) % 97;
      r.offset = (std::int64_t{b} << 20) + i * 512;
      r.bytes = 1 + (b + i) % 8192;
      block.records.push_back(r);
    }
    payload += block.records.size() * Record::kEncodedSize;
    t.blocks.push_back(std::move(block));
  }
  t.header.trace_end = MicroSec{1000} * static_cast<MicroSec>(t.blocks.size());
  ASSERT_GE(t.record_count(), 250000u);

  SpillBudget none(0);
  const SpilledTrace disk = spill_tiered(t, none);
  ASSERT_EQ(disk.write_stats().mem_blocks, 0u);
  disk.save(path_);
  const std::string want_bytes = file_bytes(path_);
  const RawTrace want = fixtures::load(disk);
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    SpillBudget unbounded(std::int64_t{1} << 40);
    const SpilledTrace s = spill_tiered(t, unbounded, async);
    ASSERT_EQ(s.write_stats().mem_blocks, t.blocks.size());
    EXPECT_EQ(s.digest(), disk.digest());
    s.save(path_);
    EXPECT_TRUE(file_bytes(path_) == want_bytes) << "saved bytes differ";
    const RawTrace got = fixtures::load(s);
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (std::size_t b = 0; b < want.blocks.size(); ++b) {
      SCOPED_TRACE(b);
      expect_same_records(got.blocks[b].records, want.blocks[b].records);
    }
  }
}

TEST_F(SpillTest, EmptyAnonymousSpillCreatesNoFile) {
  const RawTrace t = sample(0);
  SpillBudget budget(1 << 20);
  // A directory that does not exist: making a file there would throw.
  SpillWriterOptions opts;
  opts.budget = &budget;
  const SpilledTrace s = fixtures::spill(
      t, SpillTarget::anonymous_in(path_ + ".no_dir"), opts);
  EXPECT_EQ(s.write_stats().disk_bytes, 0);
  SpillBudget none(0);
  EXPECT_EQ(s.digest(), spill_tiered(t, none).digest());
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), 0u);
}

// ---- PageLog, the memory tiers' storage. ----

/// Fills `n` bytes at `p` with a pattern keyed by `seed`.
void fill(std::uint8_t* p, std::size_t n, std::uint8_t seed) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
}

/// True iff the `n` bytes at `p` still hold fill()'s pattern for `seed`.
bool holds(const std::uint8_t* p, std::size_t n, std::uint8_t seed) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != static_cast<std::uint8_t>(seed + i * 31)) return false;
  }
  return true;
}

TEST(PageLogTest, NoAppendsMapNothing) {
  const PageLog log;
  EXPECT_EQ(log.mapped_bytes(), 0u);
  PageLog moved;
  PageLog target(std::move(moved));
  EXPECT_EQ(target.mapped_bytes(), 0u);
}

TEST(PageLogTest, AppendsAcrossSegmentsKeepEarlierBytes) {
  PageLog log;
  struct Piece {
    std::uint8_t* at;
    std::size_t size;
  };
  std::vector<Piece> pieces;
  std::size_t total = 0;
  for (std::size_t k = 0; total <= 2 * PageLog::kSegmentBytes; ++k) {
    const std::size_t n = 1001 + (k * 977) % 60000;  // uneven sizes
    std::uint8_t* p = log.append(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    fill(p, n, static_cast<std::uint8_t>(k));
    pieces.push_back({p, n});
    total += n;
  }
  // Three segments: the appends did not fit two.
  EXPECT_EQ(log.mapped_bytes(), 3 * PageLog::kSegmentBytes);
  for (std::size_t k = 0; k < pieces.size(); ++k) {
    EXPECT_TRUE(holds(pieces[k].at, pieces[k].size,
                      static_cast<std::uint8_t>(k)))
        << "piece " << k;
  }
}

TEST(PageLogTest, AppendLargerThanASegmentGetsItsOwnMapping) {
  PageLog log;
  std::uint8_t* small = log.append(100);
  fill(small, 100, 1);
  const std::size_t big_size = PageLog::kSegmentBytes + 4096 + 3;
  std::uint8_t* big = log.append(big_size);
  fill(big, big_size, 2);
  // The open segment keeps filling after the oversized append.
  std::uint8_t* next = log.append(50);
  fill(next, 50, 3);
  EXPECT_EQ(next, small + 104);
  EXPECT_EQ(log.mapped_bytes(), PageLog::kSegmentBytes + big_size);
  EXPECT_TRUE(holds(small, 100, 1));
  EXPECT_TRUE(holds(big, big_size, 2));
  EXPECT_TRUE(holds(next, 50, 3));
}

TEST(PageLogTest, MoveTransfersOwnership) {
  PageLog a;
  std::uint8_t* p = a.append(4000);
  fill(p, 4000, 9);
  PageLog b(std::move(a));
  EXPECT_EQ(a.mapped_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.mapped_bytes(), PageLog::kSegmentBytes);
  EXPECT_TRUE(holds(p, 4000, 9));

  PageLog c;
  fill(c.append(10), 10, 4);  // c's own segment, unmapped by the assignment
  c = std::move(b);
  EXPECT_EQ(b.mapped_bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.mapped_bytes(), PageLog::kSegmentBytes);
  EXPECT_TRUE(holds(p, 4000, 9));
  // The log appends on after the move, into the segment it took over.
  std::uint8_t* q = c.append(8);
  EXPECT_EQ(q, p + 4000);
  EXPECT_EQ(c.mapped_bytes(), PageLog::kSegmentBytes);
  // A moved-from log is empty and usable.
  fill(a.append(16), 16, 5);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.mapped_bytes(), PageLog::kSegmentBytes);
}

}  // namespace
}  // namespace charisma::trace
