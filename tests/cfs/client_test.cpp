// End-to-end CFS client tests on a tiny simulated machine.
#include "cfs/client.hpp"

#include <gtest/gtest.h>

namespace charisma::cfs {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest()
      : rng_(1),
        machine_(engine_, ipsc::MachineConfig::tiny(), rng_),
        runtime_(machine_) {}

  sim::Engine engine_;
  util::Rng rng_;
  ipsc::Machine machine_;
  Runtime runtime_;
};

TEST_F(ClientTest, OpenWriteReadRoundTrip) {
  Client writer(runtime_, 0);
  const auto open = writer.open(1, "data.out", kWrite | kCreate,
                                IoMode::kIndependent);
  ASSERT_TRUE(open.ok) << to_string(open.error);
  EXPECT_GE(open.fd, 3);
  EXPECT_TRUE(open.created);

  const auto w = writer.write(open.fd, 10000);
  ASSERT_TRUE(w.ok) << to_string(w.error);
  EXPECT_EQ(w.offset, 0);
  EXPECT_EQ(w.bytes, 10000);
  EXPECT_TRUE(w.extended_file);
  EXPECT_GT(w.completed_at, engine_.now());

  EXPECT_EQ(writer.close(open.fd), std::optional<std::int64_t>(10000));

  Client reader(runtime_, 1);
  const auto ropen = reader.open(2, "data.out", kRead, IoMode::kIndependent);
  ASSERT_TRUE(ropen.ok);
  const auto r = reader.read(ropen.fd, 4000);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.offset, 0);
  EXPECT_EQ(r.bytes, 4000);
  const auto r2 = reader.read(ropen.fd, 100000);
  EXPECT_EQ(r2.bytes, 6000);  // clipped at EOF
}

TEST_F(ClientTest, BadFdIsAnError) {
  Client c(runtime_, 0);
  EXPECT_FALSE(c.read(42, 10).ok);
  EXPECT_FALSE(c.write(42, 10).ok);
  EXPECT_EQ(c.seek(42, 0, Whence::kSet), std::nullopt);
  EXPECT_EQ(c.close(42), std::nullopt);
  EXPECT_EQ(c.file_of(42), kNoFile);
  EXPECT_EQ(c.job_of(42), kNoJob);
}

TEST_F(ClientTest, FailedOpsReportCallTimeAndZeroBytes) {
  // The error contract (client.hpp): a failed operation consumes no
  // simulated time — completed_at is the call time, never a stale value
  // from an earlier operation and never a future completion.
  Client c(runtime_, 0);
  const auto open = c.open(1, "f", kRead | kWrite | kCreate,
                           IoMode::kIndependent);
  ASSERT_TRUE(open.ok);
  const auto w = c.write(open.fd, 50000);
  ASSERT_TRUE(w.ok);
  ASSERT_GT(w.completed_at, engine_.now());
  // Move simulated time off zero so a zeroed/stale timestamp is visible.
  engine_.run_until(w.completed_at + 1000);
  const auto t = engine_.now();
  ASSERT_GT(t, 0);

  for (const IoResult& r :
       {c.read(999, 10), c.write(999, 10), c.read_strided(999, 100, 10, 2),
        c.read_strided(open.fd, 0, 10, 2)}) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.bytes, 0);
    EXPECT_EQ(r.completed_at, t);
  }
}

TEST_F(ClientTest, FailedReservationReportsCallTime) {
  // Reservation-level failure (not just a bad descriptor): a write-only
  // file rejects reads after the fd lookup succeeded.
  Client c(runtime_, 0);
  const auto open = c.open(1, "wo", kWrite | kCreate, IoMode::kIndependent);
  ASSERT_TRUE(open.ok);
  engine_.run_until(7777);
  const auto r = c.read(open.fd, 10);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.bytes, 0);
  EXPECT_EQ(r.completed_at, engine_.now());
  const auto rs = c.read_strided(open.fd, 100, 100, 2);
  EXPECT_FALSE(rs.ok);
  EXPECT_EQ(rs.bytes, 0);
  EXPECT_EQ(rs.completed_at, engine_.now());
}

TEST_F(ClientTest, SeekRepositionsReads) {
  Client c(runtime_, 0);
  const auto open =
      c.open(1, "f", kRead | kWrite | kCreate, IoMode::kIndependent);
  ASSERT_TRUE(open.ok);
  (void)c.write(open.fd, 8192);
  EXPECT_EQ(c.seek(open.fd, 1000, Whence::kSet), 1000);
  const auto r = c.read(open.fd, 100);
  EXPECT_EQ(r.offset, 1000);
}

TEST_F(ClientTest, LargerTransfersTakeLonger) {
  Client c(runtime_, 0);
  const auto open = c.open(1, "f", kWrite | kCreate, IoMode::kIndependent);
  const auto small = c.write(open.fd, 512);
  const auto big = c.write(open.fd, 512 * 1024);
  EXPECT_GT(big.completed_at - small.completed_at,
            small.completed_at - engine_.now());
}

TEST_F(ClientTest, IoMessagesCountBlocksTouched) {
  Client c(runtime_, 0);
  const auto open = c.open(1, "f", kWrite | kCreate, IoMode::kIndependent);
  EXPECT_EQ(c.io_messages(), 0u);
  (void)c.write(open.fd, util::kBlockSize * 3);  // 3 blocks = 3 messages
  EXPECT_EQ(c.io_messages(), 3u);
  (void)c.write(open.fd, 100);
  EXPECT_EQ(c.io_messages(), 4u);
}

TEST_F(ClientTest, ZeroByteOpsSucceedWithoutTraffic) {
  Client c(runtime_, 0);
  const auto open = c.open(1, "f", kRead | kWrite | kCreate,
                           IoMode::kIndependent);
  const auto w = c.write(open.fd, 0);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(w.bytes, 0);
  EXPECT_EQ(c.io_messages(), 0u);
}

TEST_F(ClientTest, TwoNodesShareAFileUnderModeZero) {
  Client a(runtime_, 0), b(runtime_, 1);
  const auto oa = a.open(1, "shared", kWrite | kCreate, IoMode::kIndependent);
  const auto ob = b.open(1, "shared", kWrite, IoMode::kIndependent);
  ASSERT_TRUE(oa.ok && ob.ok);
  EXPECT_EQ(oa.file, ob.file);
  const auto wa = a.write(oa.fd, 100);
  const auto wb = b.write(ob.fd, 100);
  // Independent pointers: both wrote at offset 0.
  EXPECT_EQ(wa.offset, 0);
  EXPECT_EQ(wb.offset, 0);
}

TEST_F(ClientTest, UnlinkRemovesFileAndInvalidatesCaches) {
  Client c(runtime_, 0);
  const auto open = c.open(1, "victim", kWrite | kCreate, IoMode::kIndependent);
  (void)c.write(open.fd, 100);
  (void)c.close(open.fd);
  EXPECT_TRUE(c.unlink(1, "victim"));
  EXPECT_FALSE(c.unlink(1, "victim"));
  EXPECT_FALSE(c.open(2, "victim", kRead, IoMode::kIndependent).ok);
}

TEST_F(ClientTest, OpenFilesTracksHandleTable) {
  Client c(runtime_, 0);
  const auto o1 = c.open(1, "a", kWrite | kCreate, IoMode::kIndependent);
  const auto o2 = c.open(1, "b", kWrite | kCreate, IoMode::kIndependent);
  EXPECT_EQ(c.open_files(), 2u);
  EXPECT_EQ(c.file_of(o1.fd), o1.file);
  EXPECT_EQ(c.job_of(o2.fd), 1);
  (void)c.close(o1.fd);
  EXPECT_EQ(c.open_files(), 1u);
}

TEST_F(ClientTest, DiskTrafficLandsOnAllIoNodes) {
  Client c(runtime_, 0);
  const auto open = c.open(1, "big", kWrite | kCreate, IoMode::kIndependent);
  (void)c.write(open.fd, 64 * util::kKiB);  // 16 blocks over 2 I/O nodes
  EXPECT_GT(machine_.disk(0).bytes_moved(), 0);
  EXPECT_GT(machine_.disk(1).bytes_moved(), 0);
}

}  // namespace
}  // namespace charisma::cfs
