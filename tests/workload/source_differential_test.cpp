// The workload::Source seam end to end.  Every op a source yields must run
// exactly once through the Driver, with no I/O errors, for every registered
// method — a conservation law that names the count when an op is dropped or
// repeated, where a changed digest would only say that something moved.
// The pinned scale-0.2 anchor digest must also come out of the Source-fed
// pipeline unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/stream_study.hpp"
#include "drained_ops.hpp"
#include "workload/source.hpp"

namespace charisma {
namespace {

/// The repo-wide determinism anchor: scale 0.2 / seed 42 (see ROADMAP).
constexpr std::uint64_t kPinnedDigest = 0x5d6c862d0a86afe1ULL;

[[nodiscard]] core::StudyConfig base_config(double scale, std::uint64_t seed) {
  core::StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return config;
}

TEST(SourceDifferential, EveryYieldedOpRunsOnceWithoutIoErrors) {
  // Scale 0.05 gives every archetype of the synthetic mix mass (the sweep
  // differential uses the same size for the same reason).
  const core::StudyConfig synthetic = base_config(0.05, 7);
  core::StudyConfig checkpoint = synthetic;
  checkpoint.source.method = "checkpoint";
  core::StudyConfig replay = synthetic;
  replay.source.method = "replay";
  replay.source.path = CHARISMA_WORKLOAD_TEST_DATA_DIR "/tiny.chwl";

  core::StreamOptions options;
  options.collect_replay_ops = false;
  options.collect_rate_figures = false;
  for (const core::StudyConfig& config : {synthetic, checkpoint, replay}) {
    const std::string what = workload::to_string(config.source);
    const core::StreamedStudyOutput out =
        core::run_streamed_study(config, options);

    ASSERT_EQ(out.jobs.size(), out.workload.jobs.size()) << what;
    std::uint64_t job_ops = 0;
    for (const workload::JobResult& job : out.jobs) {
      EXPECT_GT(job.end, job.start) << what << " job " << job.job;
      EXPECT_EQ(job.io_errors, 0u) << what << " job " << job.job;
      job_ops += job.ops;
    }
    EXPECT_GT(out.total_ops, 0u) << what;
    EXPECT_EQ(out.total_ops, job_ops) << what;
    EXPECT_EQ(out.total_ops,
              workload::drained_ops(config.source, config.workload,
                                    config.machine.compute_nodes))
        << what;
  }
}

TEST(SourceDifferential, PinnedDigestUnchangedThroughTheSeam) {
  // The determinism anchor every other suite pins (scale 0.2, seed 42) must
  // come out of the Source-fed pipeline unchanged — the refactor moved the
  // workload -> CFS boundary without disturbing a single trace byte.
  const core::StreamedStudyOutput out =
      core::run_streamed_study(base_config(0.2, 42));
  EXPECT_EQ(out.trace_digest, kPinnedDigest);
}

}  // namespace
}  // namespace charisma
