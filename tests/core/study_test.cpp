#include "core/study.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"

namespace charisma::core {
namespace {

TEST(Study, RunsEndToEnd) {
  const auto out = run_study_at_scale(0.02, 3);
  EXPECT_GT(out.records, 1000u);
  EXPECT_GT(out.total_ops, 1000u);
  EXPECT_GT(out.sim_end, 0);
  EXPECT_EQ(out.sorted.records.size(), out.records);
  EXPECT_EQ(out.header.compute_nodes, 128);
  EXPECT_EQ(out.header.io_nodes, 10);
  EXPECT_FALSE(out.jobs.empty());
}

TEST(Study, DeterministicTraces) {
  const auto a = run_study_at_scale(0.02, 7);
  const auto b = run_study_at_scale(0.02, 7);
  ASSERT_EQ(a.sorted.records.size(), b.sorted.records.size());
  for (std::size_t i = 0; i < a.sorted.records.size(); ++i) {
    EXPECT_EQ(a.sorted.records[i].timestamp, b.sorted.records[i].timestamp);
    EXPECT_EQ(a.sorted.records[i].offset, b.sorted.records[i].offset);
    EXPECT_EQ(a.sorted.records[i].file, b.sorted.records[i].file);
  }
  EXPECT_EQ(a.sim_end, b.sim_end);
}

TEST(Study, DifferentSeedsDifferentTraces) {
  const auto a = run_study_at_scale(0.02, 1);
  const auto b = run_study_at_scale(0.02, 2);
  EXPECT_NE(a.sorted.records.size(), b.sorted.records.size());
}

TEST(Study, SortedTraceIsChronological) {
  const auto out = run_study_at_scale(0.02, 11);
  for (std::size_t i = 1; i < out.sorted.records.size(); ++i) {
    EXPECT_LE(out.sorted.records[i - 1].timestamp,
              out.sorted.records[i].timestamp);
  }
}

TEST(Study, InstrumentationPerturbationIsSmall) {
  const auto out = run_study_at_scale(0.05, 13);
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
  const auto out = run_study_at_scale(0.02, 19);
  const std::string path = ::testing::TempDir() + "study_roundtrip.chtr";
  out.trace.save(path);
  const auto back = trace::SpilledTrace::open(path);
  EXPECT_EQ(back.record_count(), out.records);
  trace::MaterializeSink sink;
  (void)trace::stream_postprocess(back, {&sink});
  const trace::SortedTrace sorted = sink.take(back.header);
  ASSERT_EQ(sorted.records.size(), out.sorted.records.size());
  for (std::size_t i = 0; i < sorted.records.size(); i += 97) {
    EXPECT_EQ(sorted.records[i].timestamp, out.sorted.records[i].timestamp);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace charisma::core
