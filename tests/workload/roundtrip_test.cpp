// Round-trip lock on the chwl schema: export a synthetic workload through
// the Source seam, replay the log, and the resulting study must be
// bit-identical — same trace digest — as running the synthetic source
// directly.  This is what makes the text schema self-validating: any field
// the exporter drops or the reader misparses shifts the simulation and
// breaks the digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/stream_study.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

namespace charisma {
namespace {

class RoundTripTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  // Unique per test: ctest runs the tests of this fixture as concurrent
  // processes, which must not collide on the log file.
  std::string path_ =
      ::testing::TempDir() + "charisma_roundtrip_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".chwl";

  [[nodiscard]] static core::StudyConfig smoke_config() {
    core::StudyConfig config;
    config.workload = workload::WorkloadConfig::smoke();
    return config;
  }

  void export_synthetic(const core::StudyConfig& config) {
    workload::SourceSpec spec;  // default: synthetic
    const auto source = workload::load_source(spec, config.workload);
    workload::export_source_log(*source, path_);
  }

  [[nodiscard]] core::StudyConfig replay_config(
      const core::StudyConfig& base) const {
    core::StudyConfig config = base;
    config.source.method = "replay";
    config.source.path = path_;
    return config;
  }
};

TEST_F(RoundTripTest, ExportedSyntheticReplaysToIdenticalDigest) {
  const core::StudyConfig config = smoke_config();
  const core::StreamedStudyOutput direct = core::run_streamed_study(config);
  export_synthetic(config);
  const core::StreamedStudyOutput replayed =
      core::run_streamed_study(replay_config(config));

  EXPECT_EQ(direct.trace_digest, replayed.trace_digest);
  EXPECT_EQ(direct.total_ops, replayed.total_ops);
  EXPECT_EQ(direct.records, replayed.records);
  EXPECT_EQ(direct.streamed_records, replayed.streamed_records);
  ASSERT_EQ(direct.jobs.size(), replayed.jobs.size());
  for (std::size_t i = 0; i < direct.jobs.size(); ++i) {
    EXPECT_EQ(direct.jobs[i].end, replayed.jobs[i].end) << "job " << i;
    EXPECT_EQ(direct.jobs[i].ops, replayed.jobs[i].ops) << "job " << i;
    EXPECT_EQ(direct.jobs[i].io_errors, replayed.jobs[i].io_errors)
        << "job " << i;
  }
}

TEST_F(RoundTripTest, ReplayedLogStreamsToTheSameDigestToo) {
  const core::StudyConfig config = smoke_config();
  const core::StreamedStudyOutput direct = core::run_streamed_study(config);
  export_synthetic(config);
  const core::StreamedStudyOutput streamed =
      core::run_streamed_study(replay_config(config));
  EXPECT_EQ(direct.trace_digest, streamed.trace_digest);
}

TEST_F(RoundTripTest, ExportIsIdempotent) {
  // Exporting the replayed log again must reproduce the file byte-for-byte
  // (modulo the hand-written original's comments, which the exporter never
  // emits — so compare export(replay(export(x))) against export(x)).
  const core::StudyConfig config = smoke_config();
  export_synthetic(config);

  const std::string second_path = path_ + ".2";
  {
    const auto replayed = workload::make_replay_source(path_, config.workload);
    workload::export_source_log(*replayed, second_path);
  }
  std::ifstream a(path_, std::ios::binary);
  std::ifstream b(second_path, std::ios::binary);
  std::ostringstream a_bytes;
  std::ostringstream b_bytes;
  a_bytes << a.rdbuf();
  b_bytes << b.rdbuf();
  std::remove(second_path.c_str());
  ASSERT_FALSE(a_bytes.str().empty());
  EXPECT_EQ(a_bytes.str(), b_bytes.str());
}

TEST_F(RoundTripTest, CheckpointSourceRoundTripsThroughTheLogToo) {
  core::StudyConfig config = smoke_config();
  config.source.method = "checkpoint";
  config.workload.checkpoint.size_tib = 0.0005;
  config.workload.checkpoint.nodes = 8;
  config.workload.checkpoint.mtti_hours = 1.0;
  config.workload.scale = 1.0;
  config.workload.checkpoint.runtime_hours = 0.05;
  const core::StreamedStudyOutput direct = core::run_streamed_study(config);

  const auto source = workload::load_source(config.source, config.workload);
  workload::export_source_log(*source, path_);
  const core::StreamedStudyOutput replayed =
      core::run_streamed_study(replay_config(config));
  EXPECT_EQ(direct.trace_digest, replayed.trace_digest);
  EXPECT_GT(direct.total_ops, 0u);
}

}  // namespace
}  // namespace charisma
