#include "cfs/file_system.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "util/check.hpp"

namespace charisma::cfs {
namespace {

FileSystemParams tiny_params() {
  FileSystemParams p;
  p.io_nodes = 4;
  p.block_size = 1024;
  p.disk_capacity = 1024 * 1024;
  p.pointer_handoff = 100;
  return p;
}

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystem fs_{tiny_params()};

  FileId create(JobId job, NodeId node, const std::string& path,
                std::uint8_t extra = 0) {
    const auto r = fs_.open(job, node, path, kWrite | kCreate | extra,
                            IoMode::kIndependent, 0);
    EXPECT_TRUE(r.ok) << to_string(r.error);
    EXPECT_TRUE(r.created);
    return r.file;
  }
};

TEST_F(FileSystemTest, CreateAndLookup) {
  const FileId id = create(1, 0, "a/b.dat");
  EXPECT_EQ(fs_.lookup("a/b.dat"), std::optional<FileId>(id));
  EXPECT_EQ(fs_.lookup("missing"), std::nullopt);
  EXPECT_EQ(fs_.file_count(), 1);
  const auto stats = fs_.stats(id);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->path, "a/b.dat");
  EXPECT_EQ(stats->creator, 1);
  EXPECT_EQ(stats->size, 0);
}

TEST_F(FileSystemTest, OpenMissingWithoutCreateFails) {
  const auto r = fs_.open(1, 0, "nope", kRead, IoMode::kIndependent, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, IoError::kNoSuchFile);
}

TEST_F(FileSystemTest, OpenWithoutIntentFails) {
  const auto r = fs_.open(1, 0, "x", kCreate, IoMode::kIndependent, 0);
  EXPECT_FALSE(r.ok);
}

TEST_F(FileSystemTest, DoubleOpenBySameNodeFails) {
  create(1, 0, "f");
  const auto r = fs_.open(1, 0, "f", kWrite, IoMode::kIndependent, 0);
  EXPECT_FALSE(r.ok);
}

TEST_F(FileSystemTest, ConflictingModeWithinSessionFails) {
  create(1, 0, "f");
  const auto r = fs_.open(1, 1, "f", kWrite, IoMode::kShared, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, IoError::kModeConflict);
}

TEST_F(FileSystemTest, SeparateJobsGetSeparateSessions) {
  const FileId id = create(1, 0, "f");
  const auto r2 = fs_.open(2, 0, "f", kRead | kWrite, IoMode::kShared, 0);
  EXPECT_TRUE(r2.ok) << to_string(r2.error);
  EXPECT_EQ(r2.file, id);
  EXPECT_FALSE(r2.created);
}

TEST_F(FileSystemTest, WriteExtendsAndAllocates) {
  const FileId id = create(1, 0, "f");
  const auto r = fs_.reserve_write(1, 0, id, 2500, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.offset, 0);
  EXPECT_EQ(r.bytes, 2500);
  EXPECT_TRUE(r.extends_file);
  EXPECT_EQ(fs_.stats(id)->size, 2500);
  // 2500 bytes over 1024-byte blocks = 3 blocks, striped round-robin.
  std::int64_t total_blocks = 0;
  for (int io = 0; io < 4; ++io) total_blocks += fs_.blocks_allocated(io);
  EXPECT_EQ(total_blocks, 3);
}

TEST_F(FileSystemTest, SequentialWritesAdvancePointer) {
  const FileId id = create(1, 0, "f");
  EXPECT_EQ(fs_.reserve_write(1, 0, id, 100, 0).offset, 0);
  EXPECT_EQ(fs_.reserve_write(1, 0, id, 100, 0).offset, 100);
  EXPECT_EQ(fs_.reserve_write(1, 0, id, 100, 0).offset, 200);
}

TEST_F(FileSystemTest, ReadsClipAtEof) {
  const FileId id = create(1, 0, "f", kRead);
  (void)fs_.reserve_write(1, 0, id, 150, 0);
  (void)fs_.seek(1, 0, id, 0, Whence::kSet);
  const auto r1 = fs_.reserve_read(1, 0, id, 100, 0);
  EXPECT_EQ(r1.bytes, 100);
  const auto r2 = fs_.reserve_read(1, 0, id, 100, 0);
  EXPECT_EQ(r2.bytes, 50);  // clipped
  const auto r3 = fs_.reserve_read(1, 0, id, 100, 0);
  EXPECT_TRUE(r3.ok);
  EXPECT_EQ(r3.bytes, 0);  // at EOF
}

TEST_F(FileSystemTest, ReadWithoutReadIntentFails) {
  const FileId id = create(1, 0, "f");  // write-only open
  const auto r = fs_.reserve_read(1, 0, id, 10, 0);
  EXPECT_FALSE(r.ok);
}

TEST_F(FileSystemTest, WriteWithoutWriteIntentFails) {
  create(1, 0, "f");
  const auto open2 = fs_.open(2, 0, "f", kRead, IoMode::kIndependent, 0);
  const auto r = fs_.reserve_write(2, 0, open2.file, 10, 0);
  EXPECT_FALSE(r.ok);
}

TEST_F(FileSystemTest, Mode0PointersAreIndependent) {
  const FileId id = create(1, 0, "f", kRead);
  const auto o1 = fs_.open(1, 1, "f", kRead | kWrite, IoMode::kIndependent, 0);
  ASSERT_TRUE(o1.ok) << to_string(o1.error);
  (void)fs_.reserve_write(1, 0, id, 1000, 0);
  // Node 1's pointer is still at 0.
  const auto r = fs_.reserve_read(1, 1, id, 200, 0);
  EXPECT_EQ(r.offset, 0);
  EXPECT_EQ(r.bytes, 200);
}

TEST_F(FileSystemTest, Mode1SharedPointerSerializes) {
  const auto o0 = fs_.open(1, 0, "f", kWrite | kCreate, IoMode::kShared, 0);
  const auto o1 = fs_.open(1, 1, "f", kWrite, IoMode::kShared, 0);
  ASSERT_TRUE(o0.ok && o1.ok);
  const auto r0 = fs_.reserve_write(1, 0, o0.file, 100, 0);
  const auto r1 = fs_.reserve_write(1, 1, o1.file, 100, 0);
  EXPECT_EQ(r0.offset, 0);
  EXPECT_EQ(r1.offset, 100);  // shared pointer advanced
  // Pointer hand-off enforces serialization in time.
  EXPECT_GE(r1.not_before, r0.not_before + 100);
}

TEST_F(FileSystemTest, Mode2EnforcesRoundRobin) {
  const auto o0 = fs_.open(1, 0, "f", kWrite | kCreate, IoMode::kOrdered, 0);
  const auto o1 = fs_.open(1, 1, "f", kWrite, IoMode::kOrdered, 0);
  ASSERT_TRUE(o0.ok && o1.ok);
  // Node 1 tries out of turn.
  const auto bad = fs_.reserve_write(1, 1, o0.file, 100, 0);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, IoError::kOutOfTurn);
  EXPECT_TRUE(fs_.reserve_write(1, 0, o0.file, 100, 0).ok);
  const auto now_ok = fs_.reserve_write(1, 1, o0.file, 100, 0);
  EXPECT_TRUE(now_ok.ok);
  EXPECT_EQ(now_ok.offset, 100);
  // Back to node 0.
  EXPECT_FALSE(fs_.reserve_write(1, 1, o0.file, 100, 0).ok);
}

TEST_F(FileSystemTest, Mode3FixedSizeComputableOffsets) {
  const auto o0 = fs_.open(1, 0, "f", kWrite | kCreate, IoMode::kFixed, 0);
  const auto o1 = fs_.open(1, 1, "f", kWrite, IoMode::kFixed, 0);
  const auto o2 = fs_.open(1, 2, "f", kWrite, IoMode::kFixed, 0);
  ASSERT_TRUE(o0.ok && o1.ok && o2.ok);
  // Out-of-order arrival is fine: offsets derive from (round, position).
  EXPECT_EQ(fs_.reserve_write(1, 2, o0.file, 50, 0).offset, 100);
  EXPECT_EQ(fs_.reserve_write(1, 0, o0.file, 50, 0).offset, 0);
  EXPECT_EQ(fs_.reserve_write(1, 1, o0.file, 50, 0).offset, 50);
  // Round 2.
  EXPECT_EQ(fs_.reserve_write(1, 0, o0.file, 50, 0).offset, 150);
  // Size mismatch is rejected.
  const auto bad = fs_.reserve_write(1, 1, o0.file, 51, 0);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, IoError::kSizeMismatch);
}

TEST_F(FileSystemTest, SeekWhenceVariants) {
  const FileId id = create(1, 0, "f", kRead);
  (void)fs_.reserve_write(1, 0, id, 1000, 0);
  EXPECT_EQ(fs_.seek(1, 0, id, 100, Whence::kSet), 100);
  EXPECT_EQ(fs_.seek(1, 0, id, 50, Whence::kCurrent), 150);
  EXPECT_EQ(fs_.seek(1, 0, id, -50, Whence::kCurrent), 100);
  EXPECT_EQ(fs_.seek(1, 0, id, -10, Whence::kEnd), 990);
  EXPECT_EQ(fs_.seek(1, 0, id, -2000, Whence::kCurrent), std::nullopt);
  // Seeking past EOF is allowed (sparse-style), like Unix.
  EXPECT_EQ(fs_.seek(1, 0, id, 5000, Whence::kSet), 5000);
}

TEST_F(FileSystemTest, SeekOnSharedPointerFails) {
  const auto o = fs_.open(1, 0, "f", kWrite | kCreate, IoMode::kShared, 0);
  EXPECT_EQ(fs_.seek(1, 0, o.file, 0, Whence::kSet), std::nullopt);
}

TEST_F(FileSystemTest, PlanStripesRoundRobin) {
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 5000, 0);  // 5 blocks
  const auto plan = fs_.plan(id, 0, 5000);
  ASSERT_EQ(plan.size(), 5u);
  const int first = plan[0].io_node;
  for (std::size_t b = 0; b < plan.size(); ++b) {
    EXPECT_EQ(plan[b].io_node, (first + static_cast<int>(b)) % 4);
    EXPECT_EQ(plan[b].file_block, static_cast<std::int64_t>(b));
  }
  EXPECT_EQ(plan[0].bytes, 1024);
  EXPECT_EQ(plan[4].bytes, 5000 - 4 * 1024);
}

TEST_F(FileSystemTest, PlanHandlesUnalignedRange) {
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 4096, 0);
  const auto plan = fs_.plan(id, 1000, 100);  // 1000..1100 spans two blocks
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].bytes, 24);
  EXPECT_EQ(plan[1].bytes, 76);
  EXPECT_EQ(plan[0].disk_offset % 1024, 1000 % 1024);
}

TEST_F(FileSystemTest, PlanBeyondAllocationThrows) {
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 100, 0);
  EXPECT_THROW(fs_.plan(id, 0, 5000), util::CheckFailure);
}

TEST_F(FileSystemTest, DifferentFilesStartOnDifferentStripes) {
  std::set<int> first_nodes;
  for (int i = 0; i < 4; ++i) {
    const FileId id = create(1, 0, "f" + std::to_string(i));
    (void)fs_.reserve_write(1, 0, id, 100, 0);
    first_nodes.insert(fs_.plan(id, 0, 100)[0].io_node);
  }
  EXPECT_EQ(first_nodes.size(), 4u);  // stripes rotate per file
}

TEST_F(FileSystemTest, TruncateResetsSize) {
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 3000, 0);
  fs_.close(1, 0, id);
  const auto r = fs_.open(2, 0, "f", kWrite | kTruncate, IoMode::kIndependent, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(fs_.stats(id)->size, 0);
}

TEST_F(FileSystemTest, CloseReturnsSizeAndTearsDownSession) {
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 777, 0);
  EXPECT_EQ(fs_.close(1, 0, id), std::optional<std::int64_t>(777));
  EXPECT_EQ(fs_.close(1, 0, id), std::nullopt);  // already closed
  // Session gone: further I/O fails.
  EXPECT_FALSE(fs_.reserve_write(1, 0, id, 10, 0).ok);
}

TEST_F(FileSystemTest, UnlinkRemovesPathKeepsInode) {
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 100, 0);
  EXPECT_TRUE(fs_.unlink(1, "f"));
  EXPECT_FALSE(fs_.unlink(1, "f"));
  EXPECT_EQ(fs_.lookup("f"), std::nullopt);
  EXPECT_TRUE(fs_.stats(id)->deleted);
  // The open session keeps working (Unix semantics).
  EXPECT_TRUE(fs_.reserve_write(1, 0, id, 10, 0).ok);
}

TEST_F(FileSystemTest, FreeBytesDecreaseWithAllocation) {
  const std::int64_t before = fs_.free_bytes(0);
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 8 * 1024, 0);  // 2 blocks per disk
  EXPECT_EQ(fs_.free_bytes(0), before - 2 * 1024);
}

TEST_F(FileSystemTest, NegativeRequestRejected) {
  const FileId id = create(1, 0, "f");
  EXPECT_FALSE(fs_.reserve_write(1, 0, id, -5, 0).ok);
}

// A write that would end past kMaxFileBytes is refused before it allocates
// a block, however the pointer got there: one far seek or a walk of
// relative ones.  Its 32-bit block map would not hold the file otherwise.
TEST_F(FileSystemTest, WritePastTheFileBoundAllocatesNothing) {
  const FileId id = create(1, 0, "f");
  const auto allocated = [&] {
    std::int64_t n = 0;
    for (int d = 0; d < 4; ++d) n += fs_.blocks_allocated(d);
    return n;
  };
  ASSERT_EQ(fs_.seek(1, 0, id, kMaxFileBytes, Whence::kSet), kMaxFileBytes);
  Reservation r = fs_.reserve_write(1, 0, id, 1, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, IoError::kFileTooLarge);
  EXPECT_TRUE(fs_.reserve_write(1, 0, id, 0, 0).ok);  // moves no bytes

  ASSERT_EQ(fs_.seek(1, 0, id, 0, Whence::kSet), 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs_.seek(1, 0, id, kMaxFileBytes / 2, Whence::kCurrent));
  }
  r = fs_.reserve_write(1, 0, id, 4096, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(allocated(), 0);
  EXPECT_EQ(fs_.stats(id)->size, 0);

  EXPECT_EQ(fs_.seek(1, 0, id, kMaxFileOffset, Whence::kSet), kMaxFileOffset);
  // No seek lands past kMaxFileOffset, so no pointer arithmetic overflows.
  EXPECT_FALSE(fs_.seek(1, 0, id, 1, Whence::kCurrent));
  EXPECT_FALSE(fs_.seek(1, 0, id, std::numeric_limits<std::int64_t>::max(),
                        Whence::kSet));
  EXPECT_EQ(allocated(), 0);
}

class ModePointerSweep : public ::testing::TestWithParam<IoMode> {};

TEST_P(ModePointerSweep, OffsetsPartitionTheFileExactly) {
  // Whatever the mode, N nodes writing k records of size r must produce
  // offsets covering [0, N*k*r) with no overlap.
  FileSystem fs(tiny_params());
  const IoMode mode = GetParam();
  constexpr int kNodes = 4, kRounds = 5;
  constexpr std::int64_t kRec = 100;
  FileId file = kNoFile;
  for (NodeId n = 0; n < kNodes; ++n) {
    const auto r = fs.open(1, n, "f", kWrite | kCreate, mode, 0);
    ASSERT_TRUE(r.ok) << to_string(r.error);
    file = r.file;
  }
  std::set<std::int64_t> offsets;
  for (int round = 0; round < kRounds; ++round) {
    for (NodeId n = 0; n < kNodes; ++n) {
      Reservation r = fs.reserve_write(1, n, file, kRec, 0);
      ASSERT_TRUE(r.ok) << to_string(r.error);
      EXPECT_TRUE(offsets.insert(r.offset).second) << "overlap at " << r.offset;
      EXPECT_EQ(r.offset % kRec, 0);
    }
  }
  EXPECT_EQ(offsets.size(), static_cast<std::size_t>(kNodes * kRounds));
  EXPECT_EQ(*offsets.rbegin(), (kNodes * kRounds - 1) * kRec);
}

INSTANTIATE_TEST_SUITE_P(SharedModes, ModePointerSweep,
                         ::testing::Values(IoMode::kShared, IoMode::kOrdered,
                                           IoMode::kFixed));

TEST_F(FileSystemTest, StripingBalancesAcrossDisks) {
  // CFS stripes every file over ALL disks; a large file must land evenly.
  const FileId id = create(1, 0, "big");
  (void)fs_.reserve_write(1, 0, id, 400 * 1024, 0);  // 400 blocks over 4
  std::int64_t min_blocks = 1 << 30, max_blocks = 0;
  for (int io = 0; io < 4; ++io) {
    min_blocks = std::min(min_blocks, fs_.blocks_allocated(io));
    max_blocks = std::max(max_blocks, fs_.blocks_allocated(io));
  }
  EXPECT_LE(max_blocks - min_blocks, 1);
  EXPECT_EQ(min_blocks + max_blocks, 100 + 100);
}

TEST_F(FileSystemTest, PlanDiskOffsetsAreBlockAlignedAndDistinct) {
  const FileId id = create(1, 0, "f");
  (void)fs_.reserve_write(1, 0, id, 16 * 1024, 0);
  std::set<std::pair<int, std::int64_t>> placements;
  for (const auto& a : fs_.plan(id, 0, 16 * 1024)) {
    EXPECT_EQ(a.disk_offset % 1024, 0);
    EXPECT_TRUE(placements.insert({a.io_node, a.disk_offset}).second)
        << "two file blocks share a disk block";
  }
}

TEST_F(FileSystemTest, RewriteDoesNotReallocate) {
  const FileId id = create(1, 0, "f", kRead);
  (void)fs_.reserve_write(1, 0, id, 4096, 0);
  const std::int64_t allocated = fs_.blocks_allocated(0) +
                                 fs_.blocks_allocated(1) +
                                 fs_.blocks_allocated(2) +
                                 fs_.blocks_allocated(3);
  (void)fs_.seek(1, 0, id, 0, Whence::kSet);
  (void)fs_.reserve_write(1, 0, id, 4096, 0);  // overwrite in place
  EXPECT_EQ(fs_.blocks_allocated(0) + fs_.blocks_allocated(1) +
                fs_.blocks_allocated(2) + fs_.blocks_allocated(3),
            allocated);
  EXPECT_EQ(fs_.stats(id)->size, 4096);
}

}  // namespace
}  // namespace charisma::cfs
