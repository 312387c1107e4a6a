#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "../trace/study_records.hpp"
#include "core/report.hpp"
#include "core/stream_study.hpp"

namespace charisma::core {
namespace {

using trace::fixtures::collect_study_at_scale;

TEST(Study, RunsEndToEnd) {
  const auto study = collect_study_at_scale(0.02, 3);
  const StreamedStudyOutput& out = study.out;
  EXPECT_GT(out.records, 1000u);
  EXPECT_GT(out.total_ops, 1000u);
  EXPECT_GT(out.sim_end, 0);
  EXPECT_EQ(study.records.size(), out.records);
  EXPECT_EQ(out.header.compute_nodes, 128);
  EXPECT_EQ(out.header.io_nodes, 10);
  EXPECT_FALSE(out.jobs.empty());
}

TEST(Study, DeterministicTraces) {
  const auto a = collect_study_at_scale(0.02, 7);
  const auto b = collect_study_at_scale(0.02, 7);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].timestamp, b.records[i].timestamp);
    EXPECT_EQ(a.records[i].offset, b.records[i].offset);
    EXPECT_EQ(a.records[i].file, b.records[i].file);
  }
  EXPECT_EQ(a.out.sim_end, b.out.sim_end);
}

TEST(Study, DifferentSeedsDifferentTraces) {
  const auto a = collect_study_at_scale(0.02, 1);
  const auto b = collect_study_at_scale(0.02, 2);
  EXPECT_NE(a.records.size(), b.records.size());
}

TEST(Study, SortedTraceIsChronological) {
  const auto study = collect_study_at_scale(0.02, 11);
  for (std::size_t i = 1; i < study.records.size(); ++i) {
    EXPECT_LE(study.records[i - 1].timestamp, study.records[i].timestamp);
  }
}

TEST(Study, InstrumentationPerturbationIsSmall) {
  StudyConfig config;
  config.workload.scale = 0.05;
  config.workload.seed = 13;
  const StreamedStudyOutput out = run_streamed_study(config);
  // §3.1: node buffering cuts collector messages by >90%.
  EXPECT_LT(out.collector_messages, out.records / 10);
  // §3.1: trace output stays well under 1% of total disk traffic... our
  // bar: under 2% even at small scales.
  EXPECT_LT(static_cast<double>(out.trace_bytes),
            0.02 * static_cast<double>(out.user_bytes_moved));
}

TEST(Study, FullReportMentionsEverySection) {
  StudyConfig config;
  config.workload.scale = 0.02;
  config.workload.seed = 17;
  StridedRewriter strided(config.machine.io_nodes, util::kBlockSize);
  StreamedStudyOutput out;
  (void)stream_study(config, {}, out, {&strided});
  const std::string report = full_report(out, strided.finish());
  for (const char* section :
       {"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figures 5/6",
        "Figure 7", "Table 1", "Table 2", "Table 3", "S4.2", "S4.6",
        "Strided"}) {
    EXPECT_NE(report.find(section), std::string::npos) << section;
  }
}

TEST(Study, TraceSurvivesDiskRoundTrip) {
  const auto study = collect_study_at_scale(0.02, 19);
  const std::string path = ::testing::TempDir() + "study_roundtrip.chtr";
  study.trace.save(path);
  const auto back = trace::SpilledTrace::open(path);
  EXPECT_EQ(back.record_count(), study.out.records);
  trace::fixtures::CollectSink sink;
  (void)trace::stream_postprocess(back, {&sink});
  ASSERT_EQ(sink.records.size(), study.records.size());
  for (std::size_t i = 0; i < sink.records.size(); i += 97) {
    EXPECT_EQ(sink.records[i].timestamp, study.records[i].timestamp);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace charisma::core
