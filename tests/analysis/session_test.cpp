#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../trace/study_records.hpp"

namespace charisma::analysis {
namespace {

using trace::fixtures::sessions_of;

// ---- merge_range -----------------------------------------------------------

TEST(MergeRange, AppendsAndCoalescesSequentially) {
  std::vector<ByteRange> r;
  merge_range(r, {0, 100});
  merge_range(r, {100, 200});  // adjacent: coalesce
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].begin, 0);
  EXPECT_EQ(r[0].end, 200);
  merge_range(r, {300, 400});
  EXPECT_EQ(r.size(), 2u);
}

TEST(MergeRange, IgnoresEmptyRanges) {
  std::vector<ByteRange> r;
  merge_range(r, {5, 5});
  merge_range(r, {9, 2});
  EXPECT_TRUE(r.empty());
}

TEST(MergeRange, InsertsOutOfOrderAndCoalescesBothSides) {
  std::vector<ByteRange> r;
  merge_range(r, {0, 10});
  merge_range(r, {20, 30});
  merge_range(r, {40, 50});
  merge_range(r, {10, 40});  // bridges everything
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].begin, 0);
  EXPECT_EQ(r[0].end, 50);
}

TEST(MergeRange, OverlapContainedRange) {
  std::vector<ByteRange> r;
  merge_range(r, {0, 100});
  merge_range(r, {20, 30});  // contained
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].end, 100);
}

TEST(MergeRange, InsertBeforeFront) {
  std::vector<ByteRange> r;
  merge_range(r, {100, 200});
  merge_range(r, {0, 50});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].begin, 0);
  merge_range(r, {40, 110});
  ASSERT_EQ(r.size(), 1u);
}

// ---- bytes_covered_by_at_least ------------------------------------------------

TEST(Coverage, CountsOverlapDepth) {
  const std::vector<ByteRange> a = {{0, 100}};
  const std::vector<ByteRange> b = {{50, 150}};
  const std::vector<ByteRange> c = {{60, 80}};
  const std::vector<const std::vector<ByteRange>*> covs = {&a, &b, &c};
  EXPECT_EQ(bytes_covered_by_at_least(covs, 1), 150);
  EXPECT_EQ(bytes_covered_by_at_least(covs, 2), 50);
  EXPECT_EQ(bytes_covered_by_at_least(covs, 3), 20);
  EXPECT_EQ(bytes_covered_by_at_least(covs, 4), 0);
}

TEST(Coverage, DisjointRangesShareNothing) {
  const std::vector<ByteRange> a = {{0, 10}};
  const std::vector<ByteRange> b = {{10, 20}};
  const std::vector<const std::vector<ByteRange>*> covs = {&a, &b};
  EXPECT_EQ(bytes_covered_by_at_least(covs, 1), 20);
  EXPECT_EQ(bytes_covered_by_at_least(covs, 2), 0);
}

// ---- SessionStore ------------------------------------------------------------

trace::Record rec(trace::EventKind kind, cfs::JobId job, cfs::NodeId node,
                  cfs::FileId file, std::int64_t offset = 0,
                  std::int64_t bytes = 0, std::int64_t aux = 0,
                  util::MicroSec t = 0) {
  trace::Record r;
  r.kind = kind;
  r.job = job;
  r.node = node;
  r.file = file;
  r.offset = offset;
  r.bytes = bytes;
  r.aux = aux;
  r.timestamp = t;
  return r;
}

using trace::EventKind;

TEST(SessionStore, ClassifiesAccessClasses) {
  // Read-only file 1, write-only file 2, read-write 3, untouched 4.
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 100),
      rec(EventKind::kOpen, 1, 0, 2),
      rec(EventKind::kWrite, 1, 0, 2, 0, 50),
      rec(EventKind::kClose, 1, 0, 2, 0, 0, 50),
      rec(EventKind::kOpen, 1, 0, 3),
      rec(EventKind::kRead, 1, 0, 3, 0, 10),
      rec(EventKind::kWrite, 1, 0, 3, 0, 10),
      rec(EventKind::kClose, 1, 0, 3, 0, 0, 10),
      rec(EventKind::kOpen, 1, 0, 4),
      rec(EventKind::kClose, 1, 0, 4),
  };
  const SessionStore store = sessions_of(records);
  ASSERT_EQ(store.sessions().size(), 4u);
  EXPECT_EQ(store.sessions()[0].access_class(), AccessClass::kReadOnly);
  EXPECT_EQ(store.sessions()[1].access_class(), AccessClass::kWriteOnly);
  EXPECT_EQ(store.sessions()[2].access_class(), AccessClass::kReadWrite);
  EXPECT_EQ(store.sessions()[3].access_class(), AccessClass::kUntouched);
  EXPECT_EQ(store.sessions()[0].size_at_close, 100);
  const auto ro = store.read_only_sessions();
  EXPECT_EQ(ro.size(), 1u);
  EXPECT_TRUE(ro.count({1, 1}));
}

TEST(SessionStore, SameFileDifferentJobsAreDistinctSessions) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 7),
      rec(EventKind::kClose, 1, 0, 7),
      rec(EventKind::kOpen, 2, 0, 7),
      rec(EventKind::kClose, 2, 0, 7),
  };
  const SessionStore store = sessions_of(records);
  EXPECT_EQ(store.sessions().size(), 2u);
}

TEST(SessionStore, TracksSequentialAndConsecutive) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kRead, 1, 0, 1, 100, 100),   // consecutive
      rec(EventKind::kRead, 1, 0, 1, 500, 100),   // sequential, gap 300
      rec(EventKind::kRead, 1, 0, 1, 200, 100),   // backwards
      rec(EventKind::kClose, 1, 0, 1),
  };
  const SessionStore store = sessions_of(records);
  const auto& s = store.sessions()[0];
  const auto& ns = s.per_node.at(0);
  EXPECT_EQ(ns.requests, 4u);
  EXPECT_EQ(ns.sequential, 2u);
  EXPECT_EQ(ns.consecutive, 1u);
  // Intervals: 0, 300, -400.
  EXPECT_EQ(s.interval_sizes.size(), 3u);
  EXPECT_TRUE(s.interval_sizes.count(0));
  EXPECT_TRUE(s.interval_sizes.count(300));
  EXPECT_TRUE(s.interval_sizes.count(-400));
  EXPECT_EQ(s.request_sizes.size(), 1u);
}

TEST(SessionStore, ConcurrentOpensTracked) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1, 0, 0, 0, 10),
      rec(EventKind::kOpen, 1, 1, 1, 0, 0, 0, 20),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 0, 30),
      rec(EventKind::kOpen, 1, 2, 1, 0, 0, 0, 40),
      rec(EventKind::kClose, 1, 1, 1, 0, 0, 0, 50),
      rec(EventKind::kClose, 1, 2, 1, 0, 0, 0, 60),
  };
  const SessionStore store = sessions_of(records);
  const auto& s = store.sessions()[0];
  EXPECT_EQ(s.max_concurrent_opens, 2);
  EXPECT_EQ(s.total_opens, 3);
}

TEST(SessionStore, SequentialOpensAreNotConcurrent) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1, 0, 0, 0, 10),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 0, 20),
      rec(EventKind::kOpen, 1, 1, 1, 0, 0, 0, 30),
      rec(EventKind::kClose, 1, 1, 1, 0, 0, 0, 40),
  };
  const SessionStore store = sessions_of(records);
  EXPECT_EQ(store.sessions()[0].max_concurrent_opens, 1);
}

TEST(SessionStore, TemporaryNeedsCreateAndDelete) {
  auto open_created = rec(EventKind::kOpen, 1, 0, 1);
  open_created.bytes = 1;  // created flag
  const std::vector<trace::Record> records = {
      open_created,
      rec(EventKind::kWrite, 1, 0, 1, 0, 10),
      rec(EventKind::kClose, 1, 0, 1),
      rec(EventKind::kDelete, 1, 0, 1),
      // File 2: deleted but not created here -> not temporary.
      rec(EventKind::kOpen, 1, 0, 2),
      rec(EventKind::kClose, 1, 0, 2),
      rec(EventKind::kDelete, 1, 0, 2),
  };
  const SessionStore store = sessions_of(records);
  EXPECT_TRUE(store.sessions()[0].temporary());
  EXPECT_FALSE(store.sessions()[1].temporary());
}

TEST(SessionStore, CoverageKeptOnlyForMultiNodeSessions) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kClose, 1, 0, 1),
      rec(EventKind::kOpen, 1, 0, 2, 0, 0, 0, 1),
      rec(EventKind::kOpen, 1, 1, 2, 0, 0, 0, 2),
      rec(EventKind::kRead, 1, 0, 2, 0, 100, 0, 3),
      rec(EventKind::kRead, 1, 1, 2, 50, 100, 0, 4),
      rec(EventKind::kClose, 1, 0, 2, 0, 0, 0, 5),
      rec(EventKind::kClose, 1, 1, 2, 0, 0, 0, 6),
  };
  const SessionStore store = sessions_of(records);
  EXPECT_TRUE(store.sessions()[0].per_node.at(0).coverage.empty());
  EXPECT_EQ(store.sessions()[1].per_node.at(0).coverage.size(), 1u);
  EXPECT_EQ(store.sessions()[1].per_node.at(1).coverage[0].begin, 50);
}

TEST(SessionStore, JobEventsCollected) {
  auto start = rec(EventKind::kJobStart, 5, trace::kServiceNode, cfs::kNoFile);
  start.aux = 32;
  start.timestamp = 100;
  auto end = rec(EventKind::kJobEnd, 5, trace::kServiceNode, cfs::kNoFile);
  end.timestamp = 900;
  const std::vector<trace::Record> records = {start, end};
  const SessionStore store = sessions_of(records);
  ASSERT_EQ(store.job_events().size(), 2u);
  EXPECT_TRUE(store.job_events()[0].start);
  EXPECT_EQ(store.job_events()[0].nodes, 32);
  EXPECT_FALSE(store.job_events()[1].start);
}

TEST(SessionStore, BytesAccumulated) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kRead, 1, 0, 1, 100, 50),
      rec(EventKind::kWrite, 1, 0, 1, 0, 70),
      rec(EventKind::kClose, 1, 0, 1),
  };
  const SessionStore store = sessions_of(records);
  EXPECT_EQ(store.sessions()[0].bytes_read, 150);
  EXPECT_EQ(store.sessions()[0].bytes_written, 70);
  EXPECT_EQ(store.sessions()[0].reads, 2u);
  EXPECT_EQ(store.sessions()[0].writes, 1u);
}

}  // namespace
}  // namespace charisma::analysis
