// Tests for the §5 strided-request interface extension.
#include <gtest/gtest.h>

#include "cfs/client.hpp"

namespace charisma::cfs {
namespace {

class StridedTest : public ::testing::Test {
 protected:
  StridedTest()
      : rng_(1),
        machine_(engine_, ipsc::MachineConfig::tiny(), rng_),
        runtime_(machine_),
        client_(runtime_, 0) {
    auto open = client_.open(1, "f", kRead | kWrite | kCreate,
                             IoMode::kIndependent);
    fd_ = open.fd;
    (void)client_.write(fd_, 100000);
    (void)client_.seek(fd_, 0, Whence::kSet);
  }

  sim::Engine engine_;
  util::Rng rng_;
  ipsc::Machine machine_;
  Runtime runtime_;
  Client client_;
  Fd fd_ = kBadFd;
};

TEST_F(StridedTest, ReadsRegularPattern) {
  const auto r = client_.read_strided(fd_, /*record=*/100, /*interval=*/400,
                                      /*count=*/10);
  ASSERT_TRUE(r.ok) << to_string(r.error);
  EXPECT_EQ(r.offset, 0);
  EXPECT_EQ(r.bytes, 1000);
  // Pointer is past the last element.
  EXPECT_EQ(client_.seek(fd_, 0, Whence::kCurrent), 9 * 500 + 100);
}

TEST_F(StridedTest, EquivalentToSeekReadLoopInCoverage) {
  // Compare the strided grant with a manual seek/read loop on a twin fd.
  Client twin(runtime_, 1);
  auto open = twin.open(1, "f", kRead, IoMode::kIndependent);
  std::int64_t loop_bytes = 0;
  for (int k = 0; k < 10; ++k) {
    (void)twin.seek(open.fd, k * 500, Whence::kSet);
    loop_bytes += twin.read(open.fd, 100).bytes;
  }
  const auto strided = client_.read_strided(fd_, 100, 400, 10);
  EXPECT_EQ(strided.bytes, loop_bytes);
}

TEST_F(StridedTest, UsesOneMessagePerIoNodeNotPerElement) {
  const auto before = client_.io_messages();
  const auto r = client_.read_strided(fd_, 100, 400, 20);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, 20 * 100);
  const auto messages = client_.io_messages() - before;
  // 20 sub-block elements spanning blocks 0..2, declustered over the tiny
  // machine's 2 I/O nodes: exactly one request message per involved node.
  EXPECT_EQ(messages, 2u);
}

TEST_F(StridedTest, PatternWithinOneBlockUsesOneMessage) {
  const auto before = client_.io_messages();
  // 5 elements inside block 0 (offsets 0..95): one I/O node involved.
  const auto r = client_.read_strided(fd_, 10, 10, 5);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, 50);
  EXPECT_EQ(client_.io_messages() - before, 1u);
}

TEST_F(StridedTest, ClipsAtEof) {
  (void)client_.seek(fd_, 99950, Whence::kSet);
  const auto r = client_.read_strided(fd_, 100, 100, 5);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, 50);  // one clipped element
  const auto r2 = client_.read_strided(fd_, 100, 100, 5);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.bytes, 0);  // fully past EOF
}

TEST_F(StridedTest, ElementsBeyondEofDropped) {
  (void)client_.seek(fd_, 99000, Whence::kSet);
  // Elements at 99000, 99500, 100000(past), ...
  const auto r = client_.read_strided(fd_, 100, 400, 10);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, 200);
}

TEST_F(StridedTest, RejectsBadParameters) {
  EXPECT_FALSE(client_.read_strided(fd_, 0, 10, 5).ok);
  EXPECT_FALSE(client_.read_strided(fd_, 100, -1, 5).ok);
  EXPECT_FALSE(client_.read_strided(fd_, 100, 10, 0).ok);
  EXPECT_FALSE(client_.read_strided(999, 100, 10, 5).ok);
}

TEST_F(StridedTest, RejectsSharedPointerModes) {
  Client other(runtime_, 2);
  auto open = other.open(2, "f", kRead, IoMode::kShared);
  ASSERT_TRUE(open.ok);
  const auto r = other.read_strided(open.fd, 100, 100, 2);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, IoError::kNotIndependent);
}

TEST_F(StridedTest, ZeroIntervalDegeneratesToSequentialRead) {
  const auto strided = client_.read_strided(fd_, 100, 0, 10);
  ASSERT_TRUE(strided.ok);
  EXPECT_EQ(strided.bytes, 1000);
  EXPECT_EQ(client_.seek(fd_, 0, Whence::kCurrent), 1000);
}

TEST_F(StridedTest, CompletionTimeBeatsElementWiseLoop) {
  // The whole point of §5: fewer messages, lower total latency.
  Client twin(runtime_, 1);
  auto open = twin.open(1, "f", kRead, IoMode::kIndependent);
  const auto t0 = engine_.now();
  util::MicroSec loop_done = t0;
  for (int k = 0; k < 50; ++k) {
    (void)twin.seek(open.fd, k * 500, Whence::kSet);
    const auto r = twin.read(open.fd, 100);
    // Sequential issue: the loop cannot overlap its own requests.
    loop_done += r.completed_at - t0;
  }
  const auto strided = client_.read_strided(fd_, 100, 400, 50);
  EXPECT_LT(strided.completed_at - t0, loop_done - t0);
}

}  // namespace
}  // namespace charisma::cfs
