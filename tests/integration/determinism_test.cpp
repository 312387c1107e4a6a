// The determinism self-check: the engine's contract says a (seed, config)
// pair always produces the identical event interleaving, so the same study
// run twice must yield byte-identical traces.  Every figure and table bench
// silently depends on this; here it is asserted mechanically via the trace
// digest (an order-sensitive hash of the on-disk encoding).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "../trace/study_records.hpp"

namespace charisma {
namespace {

using trace::fixtures::collect_study_at_scale;

constexpr double kScale = 0.05;  // small but exercises every subsystem

TEST(Determinism, SameSeedSameConfigYieldsByteIdenticalTraces) {
  const auto first = collect_study_at_scale(kScale, 1234);
  const auto second = collect_study_at_scale(kScale, 1234);

  ASSERT_GT(first.out.records, 0u);
  EXPECT_EQ(first.out.records, second.out.records);
  EXPECT_EQ(first.trace.blocks.size(), second.trace.blocks.size());
  EXPECT_EQ(first.out.sim_end, second.out.sim_end);
  EXPECT_EQ(first.out.trace_digest, second.out.trace_digest);

  // The postprocessed (clock-corrected, sorted) view must agree too.
  ASSERT_EQ(first.records.size(), second.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    std::uint8_t a[trace::Record::kEncodedSize];
    std::uint8_t b[trace::Record::kEncodedSize];
    first.records[i].encode(a);
    second.records[i].encode(b);
    ASSERT_EQ(std::memcmp(a, b, sizeof a), 0) << "record " << i << " differs";
  }
}

TEST(Determinism, DifferentSeedsYieldDifferentTraces) {
  core::StudyConfig config;
  config.workload.scale = kScale;
  config.workload.seed = 1;
  const std::uint64_t first = core::run_streamed_study(config).trace_digest;
  config.workload.seed = 2;
  EXPECT_NE(first, core::run_streamed_study(config).trace_digest);
}

TEST(Determinism, DigestSurvivesSerializationRoundTrip) {
  core::StudyConfig config;
  config.workload.scale = kScale;
  config.workload.seed = 7;
  core::StreamedStudyOutput out;
  const trace::SpilledTrace spilled = core::stream_study(config, {}, out);
  const std::string path =
      ::testing::TempDir() + "charisma_determinism.chtr";
  spilled.save(path);
  {
    const auto reread = trace::SpilledTrace::open(path);
    EXPECT_EQ(out.trace_digest, reread.digest());
    EXPECT_EQ(out.records, reread.record_count());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace charisma
