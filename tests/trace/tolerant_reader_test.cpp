// The one trace-file reader, SpilledTrace::open plus read_block, on traces
// written by SpilledTrace::save: round trips, the crash-salvaging tolerant
// mode, and hostile input.  Every indexed block is decoded through
// read_block, so the lazily read payloads are exercised, not just the index.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cfs/types.hpp"
#include "raw_trace.hpp"
#include "study_records.hpp"
#include "trace/postprocess.hpp"
#include "trace/spill.hpp"
#include "util/rng.hpp"

namespace charisma::trace {
namespace {

using fixtures::block_count_offset;
using fixtures::CollectSink;
using fixtures::file_bytes;
using fixtures::load;
using fixtures::RawTrace;
using fixtures::resident;
using fixtures::write_file;

/// A per-test file path: ctest runs every test as its own concurrent
/// process, so a shared fixed path races across cases.
std::string test_path(const char* prefix) {
  return ::testing::TempDir() + prefix +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".chtr";
}

class TraceFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = test_path("charisma_trace_test_");

  static RawTrace sample() {
    RawTrace t;
    t.header.compute_nodes = 8;
    t.header.io_nodes = 2;
    t.header.block_size = 4096;
    t.header.seed = 99;
    t.header.trace_start = 10;
    t.header.trace_end = 500000;
    t.header.label = "unit test trace";
    for (int b = 0; b < 3; ++b) {
      TraceBlock block;
      block.node = b;
      block.sent_local = 1000 * b + 5;
      block.recv_global = 1000 * b + 105;
      for (int i = 0; i < 4; ++i) {
        Record r;
        r.kind = i == 3 ? EventKind::kClose : EventKind::kRead;
        r.timestamp = 100 * b + i;
        r.job = b;
        r.file = i;
        r.node = b;
        r.offset = i * 100;
        r.bytes = 100;
        block.records.push_back(r);
      }
      t.blocks.push_back(std::move(block));
    }
    return t;
  }
};

TEST_F(TraceFileTest, Counters) {
  resident(sample()).save(path_);
  const RawTrace r = load(SpilledTrace::open(path_));
  EXPECT_EQ(r.record_count(), 12u);
  std::uint64_t data = 0;
  for (const auto& b : r.blocks) {
    for (const auto& rec : b.records) data += rec.is_data() ? 1 : 0;
  }
  EXPECT_EQ(data, 9u);
}

TEST_F(TraceFileTest, WriteReadRoundTrip) {
  const RawTrace t = sample();
  resident(t).save(path_);
  const SpilledTrace s = SpilledTrace::open(path_);
  EXPECT_EQ(s.header.compute_nodes, 8);
  EXPECT_EQ(s.header.io_nodes, 2);
  EXPECT_EQ(s.header.block_size, 4096);
  EXPECT_EQ(s.header.seed, 99u);
  EXPECT_EQ(s.header.trace_start, 10);
  EXPECT_EQ(s.header.label, "unit test trace");
  EXPECT_EQ(s.header.trace_end, 500000);
  const RawTrace r = load(s);
  ASSERT_EQ(r.blocks.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(r.blocks[b].node, t.blocks[b].node);
    EXPECT_EQ(r.blocks[b].sent_local, t.blocks[b].sent_local);
    EXPECT_EQ(r.blocks[b].recv_global, t.blocks[b].recv_global);
    ASSERT_EQ(r.blocks[b].records.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(r.blocks[b].records[i].timestamp,
                t.blocks[b].records[i].timestamp);
      EXPECT_EQ(r.blocks[b].records[i].offset, t.blocks[b].records[i].offset);
      EXPECT_EQ(r.blocks[b].records[i].kind, t.blocks[b].records[i].kind);
    }
  }
  EXPECT_EQ(s.digest(), resident(t).digest());
}

TEST_F(TraceFileTest, EmptyTraceRoundTrips) {
  RawTrace t;
  t.header.block_size = 4096;
  t.header.label = "empty";
  resident(t).save(path_);
  const SpilledTrace s = SpilledTrace::open(path_);
  EXPECT_EQ(s.record_count(), 0u);
  EXPECT_TRUE(s.blocks.empty());
  EXPECT_EQ(s.header.label, "empty");
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW((void)SpilledTrace::open("/nonexistent/nowhere.chtr"),
               std::runtime_error);
  EXPECT_THROW(resident(sample()).save("/nonexistent/nowhere.chtr"),
               std::runtime_error);
}

TEST_F(TraceFileTest, BadMagicThrows) {
  write_file(path_, "NOTATRACEFILE AT ALL, SORRY");
  EXPECT_THROW((void)SpilledTrace::open(path_), std::runtime_error);
  EXPECT_THROW((void)SpilledTrace::open(path_, /*tolerant=*/true),
               std::runtime_error);
}

TEST_F(TraceFileTest, TruncatedFileThrows) {
  resident(sample()).save(path_);
  const std::string contents = file_bytes(path_);
  write_file(path_, contents.substr(0, contents.size() / 2));
  EXPECT_THROW((void)SpilledTrace::open(path_), std::runtime_error);
}

class TolerantReaderTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = test_path("charisma_tolerant_");

  static RawTrace sample(int blocks) {
    RawTrace t;
    t.header.compute_nodes = 4;
    t.header.io_nodes = 2;
    t.header.block_size = 4096;
    t.header.label = "crashy";
    for (int b = 0; b < blocks; ++b) {
      TraceBlock block;
      block.node = b % 4;
      block.sent_local = b * 1000;
      block.recv_global = b * 1000 + 50;
      for (int i = 0; i < 8; ++i) {
        Record r;
        r.kind = i % 2 == 0 ? EventKind::kRead : EventKind::kWrite;
        r.node = block.node;
        r.timestamp = b * 1000 + i;
        r.offset = (b * 8 + i) * 100;
        r.bytes = 100;
        block.records.push_back(r);
      }
      t.blocks.push_back(std::move(block));
    }
    return t;
  }

  void save(int blocks) { resident(sample(blocks)).save(path_); }

  void truncate_to(std::size_t bytes) {
    write_file(path_, file_bytes(path_).substr(0, bytes));
  }

  /// Overwrites sizeof(T) bytes at `offset` with `value`.
  template <typename T>
  void poke(std::size_t offset, T value) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), sizeof value);
  }
};

TEST_F(TolerantReaderTest, IntactFileReadsFully) {
  save(10);
  bool truncated = true;
  const auto s = SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(s.blocks.size(), 10u);
  EXPECT_EQ(s.record_count(), 80u);
  EXPECT_EQ(load(s).record_count(), 80u);
}

TEST_F(TolerantReaderTest, SalvagesCompleteBlocksFromCrashedTrace) {
  save(10);
  truncate_to(file_bytes(path_).size() - 100);  // lose the tail mid-block
  EXPECT_THROW((void)SpilledTrace::open(path_), std::runtime_error);
  bool truncated = false;
  const auto s = SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_GE(s.blocks.size(), 8u);
  EXPECT_LT(s.blocks.size(), 10u);
  EXPECT_EQ(s.header.label, "crashy");
  // Every salvaged block is complete.
  for (const auto& b : load(s).blocks) EXPECT_EQ(b.records.size(), 8u);
}

TEST_F(TolerantReaderTest, SalvagedTracePostprocessesCleanly) {
  save(20);
  truncate_to(file_bytes(path_).size() / 2);
  const auto s = SpilledTrace::open(path_, /*tolerant=*/true);
  CollectSink sink;
  EXPECT_EQ(stream_postprocess(s, {&sink}), s.record_count());
  EXPECT_EQ(sink.records.size(), s.record_count());
}

TEST_F(TolerantReaderTest, HeaderDamageStillThrows) {
  write_file(path_, "CHARIS");  // not even a whole magic
  EXPECT_THROW((void)SpilledTrace::open(path_, /*tolerant=*/true),
               std::runtime_error);
}

// A block size of 0 would divide by zero in every analysis that indexes
// blocks (sharing, strided rewriting); no simulated machine has one.
TEST_F(TolerantReaderTest, NonPositiveBlockSizeIsRejected) {
  save(2);
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{-4096}}) {
    poke<std::int64_t>(20, bad);  // the header's block_size
    EXPECT_THROW((void)SpilledTrace::open(path_), std::runtime_error);
    EXPECT_THROW((void)SpilledTrace::open(path_, /*tolerant=*/true),
                 std::runtime_error);
  }
}

// A negative read or write offset would index the cache simulators' I/O
// nodes out of bounds.  read_block rejects it, naming the block, from
// either tier.
TEST_F(TolerantReaderTest, NegativeOffsetIsRejectedByReadBlock) {
  save(3);
  // Block 1's third record (a read) sits after the header, one whole
  // frame, and block 1's stamps; its offset follows the timestamp.
  const std::size_t frame = 24 + 8 * Record::kEncodedSize;
  const std::size_t record = block_count_offset("crashy") + 8 + frame + 24 +
                             2 * Record::kEncodedSize;
  poke<std::int64_t>(record + 8, -4096);
  const SpilledTrace s = SpilledTrace::open(path_);
  std::vector<Record> out;
  s.read_block(0, out);
  EXPECT_EQ(out.size(), 8u);
  try {
    s.read_block(1, out);
    FAIL() << "a negative offset decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("block 1"), std::string::npos)
        << e.what();
  }
  CollectSink sink;
  EXPECT_THROW((void)stream_postprocess(s, {&sink}), std::runtime_error);

  RawTrace t = sample(3);
  t.blocks[2].records[5].offset = -1;  // a write
  const SpilledTrace memory = resident(t);
  ASSERT_FALSE(memory.blocks[2].where.on_disk());
  EXPECT_THROW(memory.read_block(2, out), std::runtime_error);
}

// A request the simulated file system cannot make — a byte count outside
// [0, kMaxRequestBytes], or an offset from which a request could overflow —
// would make the cache replays walk up to 2^51 blocks.  read_block rejects
// it, naming the block, from either tier; the bounds themselves decode.
TEST_F(TolerantReaderTest, OversizedRequestIsRejectedByReadBlock) {
  const std::int64_t far = cfs::kMaxFileOffset;
  const struct {
    std::int64_t offset;
    std::int64_t bytes;
    bool ok;
  } kCases[] = {
      {0, cfs::kMaxRequestBytes, true},
      {far, 0, true},
      {0, cfs::kMaxRequestBytes + 1, false},
      {0, std::int64_t{70368744178136}, false},  // bit 46 set on 472
      {0, -1, false},
      {far + 1, 0, false},
  };
  // Block 1's fourth record (a write): after the header, one whole frame,
  // and block 1's stamps; offset and bytes follow the timestamp.
  const std::size_t frame = 24 + 8 * Record::kEncodedSize;
  const std::size_t record = block_count_offset("crashy") + 8 + frame + 24 +
                             3 * Record::kEncodedSize;
  std::vector<Record> out;
  for (const auto& c : kCases) {
    SCOPED_TRACE(std::to_string(c.offset) + " + " + std::to_string(c.bytes));
    save(3);
    poke<std::int64_t>(record + 8, c.offset);
    poke<std::int64_t>(record + 16, c.bytes);
    const SpilledTrace disk = SpilledTrace::open(path_);
    RawTrace t = sample(3);
    t.blocks[1].records[3].offset = c.offset;
    t.blocks[1].records[3].bytes = c.bytes;
    const SpilledTrace memory = resident(t);
    ASSERT_FALSE(memory.blocks[1].where.on_disk());
    if (c.ok) {
      disk.read_block(1, out);
      EXPECT_EQ(out[3].bytes, c.bytes);
      memory.read_block(1, out);
      EXPECT_EQ(out[3].offset, c.offset);
      continue;
    }
    for (const auto* s : {&disk, &memory}) {
      try {
        s->read_block(1, out);
        ADD_FAILURE() << "an impossible request decoded";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("block 1"), std::string::npos)
            << e.what();
      }
    }
  }
}

// The remaining tests are the UBSan/ASan audit for the salvage path: any
// truncation or byte corruption must end in a clean rejection (throw or
// truncated=true) — never UB, never an attempted multi-gigabyte allocation.

TEST_F(TolerantReaderTest, TruncationAtEveryByteIsRejectedCleanly) {
  save(3);
  const std::string intact = file_bytes(path_);
  for (std::size_t len = 0; len < intact.size(); ++len) {
    write_file(path_, intact.substr(0, len));
    bool truncated = false;
    try {
      const auto s = SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
      // Salvage succeeded: the prefix really was shorter than the file, so
      // the reader must say so, and every salvaged block is complete.
      EXPECT_TRUE(truncated) << "prefix length " << len;
      for (const auto& b : load(s).blocks) {
        EXPECT_EQ(b.records.size(), 8u) << "prefix length " << len;
      }
    } catch (const std::runtime_error&) {
      // Header unreadable: also a clean rejection.
      EXPECT_LT(len, intact.size());
    }
  }
}

TEST_F(TolerantReaderTest, CorruptRecordCountCannotBalloonAllocation) {
  save(4);
  // The first block's record-count field sits right after the header and
  // the block stamp.
  poke<std::uint32_t>(block_count_offset("crashy") + 8 /*nblocks*/ +
                          4 /*node*/ + 8 /*sent*/ + 8 /*recv*/,
                      0xffffffffu);
  bool truncated = false;
  const auto s = SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(s.blocks.size(), 0u);  // the poisoned block is the first
  EXPECT_THROW((void)SpilledTrace::open(path_), std::runtime_error);
}

TEST_F(TolerantReaderTest, CorruptBlockCountCannotBalloonAllocation) {
  save(4);
  poke<std::uint64_t>(block_count_offset("crashy"), 0xffffffffffffffffULL);
  bool truncated = false;
  const auto s = SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
  // The honest blocks still salvage; the bogus count is truncation.
  EXPECT_TRUE(truncated);
  EXPECT_EQ(s.blocks.size(), 4u);
  EXPECT_EQ(load(s).record_count(), 32u);
  EXPECT_THROW((void)SpilledTrace::open(path_), std::runtime_error);
}

TEST_F(TolerantReaderTest, RandomByteFlipsNeverCrashTheReader) {
  save(6);
  const std::string intact = file_bytes(path_);
  util::Rng rng(0xfeedface);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = intact;
    const int flips = 1 + static_cast<int>(rng.uniform(4));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(rng.uniform(corrupt.size()));
      corrupt[pos] = static_cast<char>(
          static_cast<unsigned char>(corrupt[pos]) ^
          static_cast<unsigned char>(1u << rng.uniform(8)));
    }
    write_file(path_, corrupt);
    bool truncated = false;
    try {
      const auto s = SpilledTrace::open(path_, /*tolerant=*/true, &truncated);
      // Decoded garbage must still be bounded by the file's actual size.
      EXPECT_LE(s.record_count(), 16u * 6u) << "trial " << trial;
      EXPECT_EQ(load(s).record_count(), s.record_count()) << "trial " << trial;
    } catch (const std::runtime_error&) {
      // Clean rejection (magic/version/label/block-size damage, a negative
      // data offset) is fine too.
    }
  }
}

}  // namespace
}  // namespace charisma::trace
