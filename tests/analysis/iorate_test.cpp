#include "analysis/iorate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace charisma::analysis {
namespace {

using trace::EventKind;

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
  trace::SortedTrace t;
  const auto r = analyze_io_rate(t);
  EXPECT_TRUE(r.timeline.empty());
  EXPECT_EQ(r.mean_mb_per_s, 0.0);
}

TEST(IoRate, BucketsSplitReadsAndWrites) {
  trace::SortedTrace t;
  t.header.trace_start = 0;
  t.header.trace_end = 3 * util::kSecond;
  t.records = {
      data(EventKind::kRead, 100, 1000),
      data(EventKind::kWrite, 200, 500),
      data(EventKind::kRead, util::kSecond + 1, 2000),
  };
  IoRateConfig cfg;
  cfg.bucket = util::kSecond;
  const auto r = analyze_io_rate(t, cfg);
  ASSERT_EQ(r.timeline.size(), 4u);
  EXPECT_EQ(r.timeline[0].bytes_read, 1000);
  EXPECT_EQ(r.timeline[0].bytes_written, 500);
  EXPECT_EQ(r.timeline[0].requests, 2u);
  EXPECT_EQ(r.timeline[1].bytes_read, 2000);
  EXPECT_EQ(r.timeline[2].requests, 0u);
  EXPECT_NEAR(r.quiet_fraction, 0.5, 1e-9);
}

TEST(IoRate, BurstinessIsPeakOverMean) {
  trace::SortedTrace t;
  t.header.trace_start = 0;
  t.header.trace_end = 4 * util::kSecond;
  // All I/O in one of five buckets.
  t.records = {data(EventKind::kWrite, 100, 5'000'000)};
  IoRateConfig cfg;
  cfg.bucket = util::kSecond;
  const auto r = analyze_io_rate(t, cfg);
  EXPECT_NEAR(r.burstiness(), 5.0, 1e-6);
  EXPECT_FALSE(r.render().empty());
}

TEST(IoRate, NonDataEventsIgnored) {
  trace::SortedTrace t;
  t.header.trace_end = util::kSecond;
  auto open = data(EventKind::kOpen, 10, 99);
  t.records = {open};
  const auto r = analyze_io_rate(t);
  EXPECT_EQ(r.timeline[0].requests, 0u);
}

// A saved trace's bounds are outside input.  A start past every record
// folds them all into one bucket; a start so early that the timeline would
// need 2^63 us of buckets is refused with a CheckFailure, never overflowed
// or allocated.
TEST(IoRate, CorruptTraceBoundsNeverOverflow) {
  trace::SortedTrace late;
  late.header.trace_start = std::int64_t{1} << 62;
  late.header.trace_end = 0;
  late.records = {data(EventKind::kRead, 100, 1000)};
  const auto r = analyze_io_rate(late);
  ASSERT_EQ(r.timeline.size(), 1u);
  EXPECT_EQ(r.timeline[0].bytes_read, 1000);

  trace::SortedTrace early = late;
  early.header.trace_start = std::numeric_limits<std::int64_t>::min();
  EXPECT_THROW((void)analyze_io_rate(early), util::CheckFailure);
}

}  // namespace
}  // namespace charisma::analysis
