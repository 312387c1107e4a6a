// The spill writer, the spilled-trace reader, and the postprocessing merge
// that streams a spilled trace, checked against a sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "trace/postprocess.hpp"
#include "trace/spill.hpp"
#include "trace/trace_file.hpp"

namespace charisma::trace {
namespace {

/// RecordSink that just collects the pushed stream.
struct CollectSink final : RecordSink {
  std::vector<Record> records;
  void on_record(const Record& r) override { records.push_back(r); }
};

/// The merge's oracle, independent of it: every record corrected by its
/// block's node fit, in concatenated block order, then stably sorted by
/// corrected timestamp — the order stream_postprocess promises.
std::vector<Record> sorted_by_corrected_time(const TraceFile& t) {
  const auto fits = fit_clocks(t);
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

/// Byte-compares `got` against the oracle's order for `t`.
void expect_sorted_order(const std::vector<Record>& got, const TraceFile& t) {
  const std::vector<Record> want = sorted_by_corrected_time(t);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    std::uint8_t a[Record::kEncodedSize];
    std::uint8_t b[Record::kEncodedSize];
    want[i].encode(a);
    got[i].encode(b);
    ASSERT_EQ(0, std::memcmp(a, b, sizeof a))
        << "record " << i << ": expected node " << want[i].node << " at "
        << want[i].timestamp << ", merged node " << got[i].node << " at "
        << got[i].timestamp;
  }
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
  static TraceFile sample(int blocks) {
    constexpr NodeId kRoundOrder[] = {2, 0, 3, 1};
    TraceFile t;
    t.header.compute_nodes = 4;
    t.header.io_nodes = 2;
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

  /// Spills every block of `t` through a SpillWriter, unfinished when
  /// `finish` is false (simulating a crash before the back-patch).
  SpilledTrace spill(const TraceFile& t, bool finish = true) {
    SpillWriter writer(SpillTarget::named(path_), t.header);
    for (const auto& b : t.blocks) writer.append(b);
    if (finish) return writer.finish(t.header.trace_end);
    // Crash path: the writer goes out of scope with the block count and
    // trace_end placeholders still zero; complete frames are on disk.
    return SpilledTrace{};
  }

  void truncate_to(std::size_t bytes) {
    std::ifstream in(path_, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(std::min(bytes, contents.size())));
  }

  std::size_t file_size() {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    return static_cast<std::size_t>(in.tellg());
  }
};

TEST_F(SpillTest, WriterMatchesTraceFileDigestAndBytes) {
  const TraceFile t = sample(10);
  const SpilledTrace s = spill(t);
  EXPECT_EQ(s.record_count(), t.record_count());
  EXPECT_EQ(s.digest(), t.digest());

  // The spill format IS the trace-file format: TraceFile::read parses it.
  const TraceFile back = TraceFile::read(path_);
  EXPECT_EQ(back.digest(), t.digest());
  EXPECT_EQ(back.header.trace_end, t.header.trace_end);
}

TEST_F(SpillTest, OpensTraceFilesWrittenByTraceFileWrite) {
  const TraceFile t = sample(6);
  t.write(path_);
  const SpilledTrace s = SpilledTrace::open(path_);
  EXPECT_EQ(s.record_count(), t.record_count());
  EXPECT_EQ(s.digest(), t.digest());
  EXPECT_EQ(s.header.label, t.header.label);
}

TEST_F(SpillTest, StreamMatchesMaterializedPostprocess) {
  const TraceFile t = sample(12);
  const SpilledTrace s = spill(t);
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), t.record_count());
  expect_sorted_order(sink.records, t);
  // postprocess() over the in-memory trace runs the same merge.
  expect_sorted_order(postprocess(t).records, t);
}

TEST_F(SpillTest, EmptySpillStreamsZeroRecords) {
  TraceFile t = sample(0);
  const SpilledTrace s = spill(t);
  EXPECT_EQ(s.digest(), t.digest());
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), 0u);
  EXPECT_TRUE(sink.records.empty());
}

// The tolerant-reader contract for spills: a crash before finish() leaves
// the block-count placeholder at zero, but every appended frame is complete
// on disk and must be recovered, not treated as fatal.
TEST_F(SpillTest, UnfinishedSpillRecoversAllAppendedBlocks) {
  const TraceFile t = sample(10);
  (void)spill(t, /*finish=*/false);

  bool truncated = false;
  const SpilledTrace s =
      SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  EXPECT_TRUE(truncated);  // the count was never patched
  EXPECT_EQ(s.blocks.size(), t.blocks.size());
  EXPECT_EQ(s.record_count(), t.record_count());

  // The recovered blocks still stream in postprocessed order.
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), t.record_count());
}

TEST_F(SpillTest, TornFinalBlockIsDroppedNotFatal) {
  const TraceFile t = sample(10);
  (void)spill(t, /*finish=*/false);
  truncate_to(file_size() - 30);  // tear into the last block's payload

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
  (void)spill(sample(4), /*finish=*/false);
  // Strict mode trusts the (placeholder-zero) count: no blocks, no error.
  const SpilledTrace s = SpilledTrace::open(path_, /*tolerant=*/false);
  EXPECT_TRUE(s.blocks.empty());
}

// ---- The tiered memory/disk writer and the async disk path. ----

/// Streams `s` and checks the record bytes against the sort of `t`.
void expect_stream_matches(const SpilledTrace& s, const TraceFile& t) {
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), t.record_count());
  expect_sorted_order(sink.records, t);
}

/// Spills `t` into an anonymous target under `budget`, finished.
SpilledTrace spill_tiered(const TraceFile& t, SpillBudget& budget,
                          bool async = false) {
  SpillWriterOptions opts;
  opts.budget = &budget;
  opts.async = async;
  SpillWriter writer(SpillTarget::anonymous_in(::testing::TempDir()),
                     t.header, opts);
  for (const auto& b : t.blocks) writer.append(b);
  return writer.finish(t.header.trace_end);
}

TEST_F(SpillTest, AllMemoryTierNeverTouchesDisk) {
  const TraceFile t = sample(10);
  SpillBudget budget(1 << 20);  // far more than 10 blocks need
  const SpilledTrace s = spill_tiered(t, budget);
  EXPECT_EQ(s.write_stats().mem_blocks, t.blocks.size());
  EXPECT_EQ(s.write_stats().disk_blocks, 0u);
  EXPECT_EQ(s.write_stats().disk_bytes, 0);
  EXPECT_TRUE(s.path().empty());  // the backing file was never created
  EXPECT_EQ(s.digest(), t.digest());
  expect_stream_matches(s, t);
}

TEST_F(SpillTest, ZeroBudgetSendsEveryBlockToDisk) {
  const TraceFile t = sample(10);
  SpillBudget budget(0);
  const SpilledTrace s = spill_tiered(t, budget);
  EXPECT_EQ(s.write_stats().mem_blocks, 0u);
  EXPECT_EQ(s.write_stats().disk_blocks, t.blocks.size());
  EXPECT_GT(s.write_stats().disk_bytes, 0);
  EXPECT_EQ(s.digest(), t.digest());
  expect_stream_matches(s, t);
}

TEST_F(SpillTest, MixedTierIsAPrefixSplitWithIdenticalDigest) {
  const TraceFile t = sample(12);
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
    if (!b.in_memory()) seen_disk = true;
    EXPECT_TRUE(seen_disk ? !b.in_memory() : b.in_memory());
  }
  EXPECT_EQ(s.digest(), t.digest());
  expect_stream_matches(s, t);
}

TEST_F(SpillTest, AsyncWriterMatchesSyncByteForByte) {
  const TraceFile t = sample(16);
  const std::string sync_path = path_ + ".sync";
  const std::string async_path = path_ + ".async";
  const auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::string sync_bytes;
  std::string async_bytes;
  {
    SpillWriterOptions opts;  // no budget: everything to disk
    SpillWriter writer(SpillTarget::named(sync_path), t.header, opts);
    for (const auto& b : t.blocks) writer.append(b);
    const SpilledTrace s = writer.finish(t.header.trace_end);
    sync_bytes = slurp(sync_path);  // before ~SpilledTrace unlinks it
    EXPECT_EQ(s.digest(), t.digest());
  }
  {
    SpillWriterOptions opts;
    opts.async = true;
    SpillWriter writer(SpillTarget::named(async_path), t.header, opts);
    for (const auto& b : t.blocks) writer.append(b);
    const SpilledTrace s = writer.finish(t.header.trace_end);
    async_bytes = slurp(async_path);
    EXPECT_EQ(s.digest(), t.digest());
  }
  ASSERT_FALSE(sync_bytes.empty());
  EXPECT_EQ(sync_bytes, async_bytes);
}

TEST_F(SpillTest, AsyncWithMemoryTierMatchesDigestAndStream) {
  const TraceFile t = sample(20);
  SpillBudget budget(7 * (8 * Record::kEncodedSize + 64));
  const SpilledTrace s = spill_tiered(t, budget, /*async=*/true);
  EXPECT_GT(s.write_stats().mem_blocks, 0u);
  EXPECT_GT(s.write_stats().disk_blocks, 0u);
  EXPECT_EQ(s.digest(), t.digest());
  expect_stream_matches(s, t);
}

// Crash with a memory tier: the resident head is lost with the process, but
// the named disk file is still a self-consistent trace of the spilled tail —
// complete frames recover, a torn final frame drops.
TEST_F(SpillTest, TornTailWithMemoryHeadRecoversDiskFrames) {
  const TraceFile t = sample(12);
  SpillBudget budget(5 * (8 * Record::kEncodedSize + 64));
  std::uint64_t disk_blocks = 0;
  {
    SpillWriterOptions opts;
    opts.budget = &budget;
    SpillWriter writer(SpillTarget::named(path_), t.header, opts);
    for (const auto& b : t.blocks) writer.append(b);
    // Crash: destroyed unfinished.  Count how many blocks overflowed.
    disk_blocks = 12 - 5;
  }
  ASSERT_GT(file_size(), 0u);
  truncate_to(file_size() - 30);  // tear into the last disk frame

  bool truncated = false;
  const SpilledTrace s =
      SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(s.blocks.size(), disk_blocks - 1);
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}),
            (disk_blocks - 1) * t.blocks[0].records.size());
}

TEST_F(SpillTest, EmptyAnonymousSpillCreatesNoFile) {
  TraceFile t = sample(0);
  SpillBudget budget(1 << 20);
  const SpilledTrace s = spill_tiered(t, budget);
  EXPECT_TRUE(s.path().empty());
  EXPECT_EQ(s.digest(), t.digest());
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), 0u);
}

}  // namespace
}  // namespace charisma::trace
