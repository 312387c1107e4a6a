#include "core/strided.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../trace/study_records.hpp"

namespace charisma::core {
namespace {

using trace::EventKind;

/// `records` through a StridedRewriter, as the merge would push them.
StridedStats rewrite(const std::vector<trace::Record>& records, int io_nodes,
                     std::int64_t block_size) {
  StridedRewriter rewriter(io_nodes, block_size);
  trace::fixtures::push(records, {&rewriter});
  return rewriter.finish();
}

trace::Record data(EventKind kind, cfs::JobId job, cfs::NodeId node,
                   cfs::FileId file, std::int64_t offset, std::int64_t bytes) {
  trace::Record r;
  r.kind = kind;
  r.job = job;
  r.node = node;
  r.file = file;
  r.offset = offset;
  r.bytes = bytes;
  return r;
}

TEST(Strided, ConsecutiveRunCollapsesToOneRequest) {
  std::vector<trace::Record> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(data(EventKind::kRead, 1, 0, 1, i * 100, 100));
  }
  const auto s = rewrite(records, 10, 4096);
  EXPECT_EQ(s.original_requests, 50u);
  EXPECT_EQ(s.strided_requests, 1u);
  EXPECT_EQ(s.longest_run, 50u);
  EXPECT_GT(s.request_reduction(), 0.97);
}

TEST(Strided, RegularStrideCollapses) {
  std::vector<trace::Record> records;
  // record 100 at offsets 0, 500, 1000, ... (interval 400).
  for (int i = 0; i < 20; ++i) {
    records.push_back(data(EventKind::kRead, 1, 0, 1, i * 500, 100));
  }
  const auto s = rewrite(records, 10, 4096);
  EXPECT_EQ(s.strided_requests, 1u);
  EXPECT_EQ(s.runs_of_two_or_more, 1u);
}

TEST(Strided, ChangingSizeBreaksTheRun) {
  std::vector<trace::Record> records;
  records.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  records.push_back(data(EventKind::kRead, 1, 0, 1, 100, 100));
  records.push_back(data(EventKind::kRead, 1, 0, 1, 200, 999));  // new size
  records.push_back(data(EventKind::kRead, 1, 0, 1, 1199, 999));
  const auto s = rewrite(records, 10, 4096);
  EXPECT_EQ(s.strided_requests, 2u);
}

TEST(Strided, ChangingIntervalBreaksTheRun) {
  std::vector<trace::Record> records;
  records.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  records.push_back(data(EventKind::kRead, 1, 0, 1, 200, 100));   // gap 100
  records.push_back(data(EventKind::kRead, 1, 0, 1, 400, 100));   // gap 100
  records.push_back(data(EventKind::kRead, 1, 0, 1, 900, 100));   // gap 400
  const auto s = rewrite(records, 10, 4096);
  EXPECT_EQ(s.strided_requests, 2u);
}

TEST(Strided, BackwardSeeksSplitRuns) {
  std::vector<trace::Record> records;
  records.push_back(data(EventKind::kRead, 1, 0, 1, 1000, 100));
  records.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));  // backwards
  records.push_back(data(EventKind::kRead, 1, 0, 1, 500, 100));
  const auto s = rewrite(records, 10, 4096);
  // The backward seek splits; the two forward requests then form one
  // stride (record 100, interval 400).
  EXPECT_EQ(s.strided_requests, 2u);
  records.push_back(data(EventKind::kRead, 1, 0, 1, 300, 100));
  const auto s2 = rewrite(records, 10, 4096);
  EXPECT_EQ(s2.strided_requests, 3u);  // another backward split
}

TEST(Strided, StreamsAreSeparatedByNodeFileAndDirection) {
  std::vector<trace::Record> records;
  // Interleaved in trace order, but each (node, direction) stream is regular.
  for (int i = 0; i < 10; ++i) {
    records.push_back(data(EventKind::kRead, 1, 0, 1, i * 100, 100));
    records.push_back(data(EventKind::kRead, 1, 1, 1, i * 100, 100));
    records.push_back(data(EventKind::kWrite, 1, 0, 2, i * 100, 100));
  }
  const auto s = rewrite(records, 10, 4096);
  EXPECT_EQ(s.original_requests, 30u);
  EXPECT_EQ(s.strided_requests, 3u);
}

TEST(Strided, MessageAccountingUsesBlocksAndIoNodes) {
  std::vector<trace::Record> records;
  // 16 consecutive 4 KB reads = 16 blocks; conventional: 16 messages.
  for (int i = 0; i < 16; ++i) {
    records.push_back(data(EventKind::kRead, 1, 0, 1, i * 4096, 4096));
  }
  const auto s = rewrite(records, 4, 4096);
  EXPECT_EQ(s.original_messages, 16u);
  // One strided request spanning 16 blocks over 4 I/O nodes: 4 messages.
  EXPECT_EQ(s.strided_messages, 4u);
  EXPECT_NEAR(s.message_reduction(), 0.75, 1e-9);
}

TEST(Strided, SingletonsStaySingletons) {
  std::vector<trace::Record> records;
  records.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  const auto s = rewrite(records, 10, 4096);
  EXPECT_EQ(s.original_requests, 1u);
  EXPECT_EQ(s.strided_requests, 1u);
  EXPECT_EQ(s.runs_of_two_or_more, 0u);
  EXPECT_DOUBLE_EQ(s.request_reduction(), 0.0);
}

TEST(Strided, RenderMentionsReductions) {
  std::vector<trace::Record> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(data(EventKind::kRead, 1, 0, 1, i * 100, 100));
  }
  const auto s = rewrite(records, 10, 4096);
  EXPECT_NE(s.render().find("requests"), std::string::npos);
  EXPECT_NE(s.render().find("I/O-node messages"), std::string::npos);
}

}  // namespace
}  // namespace charisma::core
