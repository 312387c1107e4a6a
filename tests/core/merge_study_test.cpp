// core::merge_study is the one front end for a finished trace, live or
// saved: the trace a study writes, reopened from disk and merged again, must
// reproduce the live study's results bit for bit at any spill budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "core/campaign.hpp"
#include "core/stream_study.hpp"

namespace charisma::core {
namespace {

void expect_same_io_rate(const analysis::IoRateResult& got,
                         const analysis::IoRateResult& want) {
  EXPECT_EQ(got.bucket_width, want.bucket_width);
  EXPECT_EQ(got.mean_mb_per_s, want.mean_mb_per_s);
  EXPECT_EQ(got.peak_mb_per_s, want.peak_mb_per_s);
  EXPECT_EQ(got.quiet_fraction, want.quiet_fraction);
  ASSERT_EQ(got.timeline.size(), want.timeline.size());
  for (std::size_t i = 0; i < want.timeline.size(); ++i) {
    EXPECT_EQ(got.timeline[i].start, want.timeline[i].start) << i;
    EXPECT_EQ(got.timeline[i].bytes_read, want.timeline[i].bytes_read) << i;
    EXPECT_EQ(got.timeline[i].bytes_written, want.timeline[i].bytes_written)
        << i;
    EXPECT_EQ(got.timeline[i].requests, want.timeline[i].requests) << i;
  }
}

/// The merge-derived part of a summary: the headline fractions and every
/// figure curve, cache figures included.
void expect_same_statistics(const StudySummary& got,
                            const StudySummary& want) {
  EXPECT_EQ(got.idle_fraction, want.idle_fraction);
  EXPECT_EQ(got.multiprogrammed_fraction, want.multiprogrammed_fraction);
  EXPECT_EQ(got.single_node_job_fraction, want.single_node_job_fraction);
  EXPECT_EQ(got.small_read_fraction, want.small_read_fraction);
  EXPECT_EQ(got.small_write_fraction, want.small_write_fraction);
  EXPECT_EQ(got.temporary_fraction, want.temporary_fraction);
  EXPECT_EQ(got.mode0_fraction, want.mode0_fraction);
  ASSERT_EQ(got.figures.curves.size(), want.figures.curves.size());
  for (std::size_t i = 0; i < want.figures.curves.size(); ++i) {
    SCOPED_TRACE(want.figures.curves[i].name);
    EXPECT_EQ(got.figures.curves[i].name, want.figures.curves[i].name);
    EXPECT_EQ(got.figures.curves[i].xs, want.figures.curves[i].xs);
    EXPECT_EQ(got.figures.curves[i].ys, want.figures.curves[i].ys);
  }
}

TEST(MergeStudy, SavedTraceMatchesLiveStudy) {
  StudyConfig config;
  config.workload.scale = 0.02;
  config.workload.seed = 42;
  StreamedStudyOutput live;
  const std::string path = ::testing::TempDir() + "merge_study_saved.chtr";
  stream_study(config, {}, live).save(path);
  const trace::SpilledTrace saved = trace::SpilledTrace::open(path);

  const trace::TraceHeader header = live.header;
  const std::uint64_t records = live.streamed_records;
  const analysis::IoRateResult io_rate = live.io_rate;
  const StudySummary want =
      summarize_streamed_study("live", config, std::move(live));
  ASSERT_GT(records, 1000u);
  ASSERT_EQ(saved.record_count(), records);
  ASSERT_FALSE(want.figures.curves.empty());

  for (const std::int64_t budget_mb :
       {std::int64_t{0}, kDefaultSpillBudgetMb}) {
    SCOPED_TRACE(budget_mb);
    trace::SpillBudget budget(budget_mb * (std::int64_t{1} << 20));
    StreamedStudyOutput out;
    merge_study(saved, {}, budget, ::testing::TempDir(), out);

    EXPECT_EQ(out.header.label, header.label);
    EXPECT_EQ(out.header.compute_nodes, header.compute_nodes);
    EXPECT_EQ(out.header.io_nodes, header.io_nodes);
    EXPECT_EQ(out.header.block_size, header.block_size);
    EXPECT_EQ(out.header.seed, header.seed);
    EXPECT_EQ(out.header.trace_start, header.trace_start);
    EXPECT_EQ(out.header.trace_end, header.trace_end);
    EXPECT_EQ(out.streamed_records, records);
    expect_same_io_rate(out.io_rate, io_rate);
    if (budget_mb == 0) {
      // Budget 0 sends every replay-op chunk to disk.
      EXPECT_EQ(out.spill.ops_chunks_in_memory, 0u);
      EXPECT_GT(out.spill.ops_chunks_on_disk, 0u);
    }
    expect_same_statistics(
        summarize_streamed_study("saved", config, std::move(out)), want);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace charisma::core
