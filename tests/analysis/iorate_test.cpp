#include "analysis/iorate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "../trace/study_records.hpp"

namespace charisma::analysis {
namespace {

using trace::EventKind;
using trace::fixtures::io_rate_of;

trace::Record data(EventKind kind, util::MicroSec t, std::int64_t bytes) {
  trace::Record r;
  r.kind = kind;
  r.job = 1;
  r.node = 0;
  r.file = 1;
  r.bytes = bytes;
  r.timestamp = t;
  return r;
}

TEST(IoRate, EmptyTraceIsSafe) {
  const auto r = io_rate_of({}, 0, 0);
  EXPECT_TRUE(r.timeline.empty());
  EXPECT_EQ(r.mean_mb_per_s, 0.0);
}

TEST(IoRate, BucketsSplitReadsAndWrites) {
  const std::vector<trace::Record> records = {
      data(EventKind::kRead, 100, 1000),
      data(EventKind::kWrite, 200, 500),
      data(EventKind::kRead, util::kSecond + 1, 2000),
  };
  IoRateConfig cfg;
  cfg.bucket = util::kSecond;
  const auto r = io_rate_of(records, 0, 3 * util::kSecond, cfg);
  ASSERT_EQ(r.timeline.size(), 4u);
  EXPECT_EQ(r.timeline[0].bytes_read, 1000);
  EXPECT_EQ(r.timeline[0].bytes_written, 500);
  EXPECT_EQ(r.timeline[0].requests, 2u);
  EXPECT_EQ(r.timeline[1].bytes_read, 2000);
  EXPECT_EQ(r.timeline[2].requests, 0u);
  EXPECT_NEAR(r.quiet_fraction, 0.5, 1e-9);
}

TEST(IoRate, BurstinessIsPeakOverMean) {
  // All I/O in one of five buckets.
  IoRateConfig cfg;
  cfg.bucket = util::kSecond;
  const auto r = io_rate_of({data(EventKind::kWrite, 100, 5'000'000)}, 0,
                            4 * util::kSecond, cfg);
  EXPECT_NEAR(r.burstiness(), 5.0, 1e-6);
  EXPECT_FALSE(r.render().empty());
}

TEST(IoRate, NonDataEventsIgnored) {
  const auto r =
      io_rate_of({data(EventKind::kOpen, 10, 99)}, 0, util::kSecond);
  EXPECT_EQ(r.timeline[0].requests, 0u);
}

// A saved trace's bounds are outside input.  A start past every record
// folds them all into one bucket; a start so early that the timeline would
// need 2^63 us of buckets is refused with an IoRateBoundError naming the
// record, never overflowed or allocated.
TEST(IoRate, CorruptTraceBoundsNeverOverflow) {
  const std::vector<trace::Record> records = {
      data(EventKind::kRead, 100, 1000)};
  const auto r = io_rate_of(records, std::int64_t{1} << 62, 0);
  ASSERT_EQ(r.timeline.size(), 1u);
  EXPECT_EQ(r.timeline[0].bytes_read, 1000);

  try {
    (void)io_rate_of(records, std::numeric_limits<std::int64_t>::min(), 0);
    FAIL() << "a timeline of 2^63 us of buckets was built";
  } catch (const IoRateBoundError& e) {
    // Named like read_block names a bad record: kind, job, node and time.
    EXPECT_NE(std::string(e.what()).find("READ record of job 1 on node 0"),
              std::string::npos)
        << e.what();
  }
}

// A trace whose end alone lies past the longest timeline (no data record
// does) is refused when the timeline is sized.
TEST(IoRate, CorruptTraceEndIsATypedError) {
  const std::vector<trace::Record> records = {
      data(EventKind::kRead, 100, 1000)};
  EXPECT_THROW((void)io_rate_of(records, 0, std::int64_t{1} << 62),
               IoRateBoundError);
}

}  // namespace
}  // namespace charisma::analysis
