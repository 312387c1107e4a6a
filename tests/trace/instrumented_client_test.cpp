#include "trace/instrumented_client.hpp"

#include <gtest/gtest.h>

#include "raw_trace.hpp"

namespace charisma::trace {
namespace {

class InstrumentedClientTest : public ::testing::Test {
 protected:
  InstrumentedClientTest()
      : rng_(1),
        machine_(engine_, ipsc::MachineConfig::tiny(), rng_),
        runtime_(machine_),
        collector_(machine_),
        raw_(runtime_, 0),
        client_(raw_, collector_) {
    collector_.start_spilling(SpillTarget::anonymous_in(""));
  }

  /// Every record traced so far; ends the collector's trace.
  std::vector<Record> drain() {
    std::vector<Record> out;
    for (const auto& b : fixtures::load(collector_.take_spilled()).blocks) {
      out.insert(out.end(), b.records.begin(), b.records.end());
    }
    return out;
  }

  sim::Engine engine_;
  util::Rng rng_;
  ipsc::Machine machine_;
  cfs::Runtime runtime_;
  Collector collector_;
  cfs::Client raw_;
  InstrumentedClient client_;
};

TEST_F(InstrumentedClientTest, FullSessionEmitsExpectedRecords) {
  const auto open = client_.open(1, "f", cfs::kRead | cfs::kWrite | cfs::kCreate,
                                 cfs::IoMode::kIndependent);
  ASSERT_TRUE(open.ok);
  (void)client_.write(open.fd, 500);
  (void)client_.seek(open.fd, 0, cfs::Whence::kSet);
  (void)client_.read(open.fd, 200);
  (void)client_.close(open.fd);
  EXPECT_TRUE(client_.unlink(1, "f"));

  const auto records = drain();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records[0].kind, EventKind::kOpen);
  EXPECT_EQ(open_mode(records[0].aux), cfs::IoMode::kIndependent);
  EXPECT_EQ(records[0].bytes, 1);  // created
  EXPECT_EQ(records[1].kind, EventKind::kWrite);
  EXPECT_EQ(records[1].bytes, 500);
  EXPECT_EQ(records[1].offset, 0);
  EXPECT_EQ(records[1].aux, 500);  // requested
  EXPECT_EQ(records[2].kind, EventKind::kSeek);
  EXPECT_EQ(records[2].offset, 0);
  EXPECT_EQ(records[3].kind, EventKind::kRead);
  EXPECT_EQ(records[3].bytes, 200);
  EXPECT_EQ(records[4].kind, EventKind::kClose);
  EXPECT_EQ(records[4].aux, 500);  // size at close
  EXPECT_EQ(records[5].kind, EventKind::kDelete);
  for (const auto& r : records) {
    EXPECT_EQ(r.job, 1);
    EXPECT_EQ(r.node, 0);
    EXPECT_EQ(r.file, open.file);
  }
}

TEST_F(InstrumentedClientTest, ClippedReadRecordsGrantedAndRequested) {
  const auto open = client_.open(1, "f", cfs::kRead | cfs::kWrite | cfs::kCreate,
                                 cfs::IoMode::kIndependent);
  (void)client_.write(open.fd, 100);
  (void)client_.seek(open.fd, 0, cfs::Whence::kSet);
  (void)client_.read(open.fd, 5000);
  const auto records = drain();
  const auto& read = records[3];
  EXPECT_EQ(read.kind, EventKind::kRead);
  EXPECT_EQ(read.bytes, 100);   // granted
  EXPECT_EQ(read.aux, 5000);    // requested
}

TEST_F(InstrumentedClientTest, FailedOperationsEmitNothing) {
  (void)client_.open(1, "missing", cfs::kRead, cfs::IoMode::kIndependent);
  (void)client_.read(99, 10);
  EXPECT_FALSE(client_.unlink(1, "missing"));
  EXPECT_TRUE(drain().empty());
}

TEST_F(InstrumentedClientTest, UntracedClientEmitsNothing) {
  InstrumentedClient quiet(raw_, collector_, /*traced=*/false);
  EXPECT_FALSE(quiet.traced());
  const auto open = quiet.open(1, "f", cfs::kWrite | cfs::kCreate,
                               cfs::IoMode::kIndependent);
  ASSERT_TRUE(open.ok);  // the I/O itself still happens
  (void)quiet.write(open.fd, 100);
  (void)quiet.close(open.fd);
  EXPECT_TRUE(drain().empty());
  EXPECT_EQ(runtime_.fs().stats(open.file)->size, 100);
}

TEST_F(InstrumentedClientTest, OpsStillPerformIo) {
  const auto open = client_.open(1, "f", cfs::kWrite | cfs::kCreate,
                                 cfs::IoMode::kIndependent);
  const auto w = client_.write(open.fd, 12345);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(runtime_.fs().stats(open.file)->size, 12345);
}

}  // namespace
}  // namespace charisma::trace
