// The determinism self-check: the engine's contract says a (seed, config)
// pair always produces the identical event interleaving, so the same study
// run twice must yield byte-identical traces.  Every figure and table bench
// silently depends on this; here it is asserted mechanically via the trace
// digest (an order-sensitive hash of the on-disk encoding).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "core/study.hpp"

namespace charisma {
namespace {

constexpr double kScale = 0.05;  // small but exercises every subsystem

TEST(Determinism, SameSeedSameConfigYieldsByteIdenticalTraces) {
  const auto first = core::run_study_at_scale(kScale, 1234);
  const auto second = core::run_study_at_scale(kScale, 1234);

  ASSERT_GT(first.records, 0u);
  EXPECT_EQ(first.records, second.records);
  EXPECT_EQ(first.trace.blocks.size(), second.trace.blocks.size());
  EXPECT_EQ(first.sim_end, second.sim_end);
  EXPECT_EQ(first.trace_digest, second.trace_digest);

  // The postprocessed (clock-corrected, sorted) view must agree too.
  ASSERT_EQ(first.sorted.records.size(), second.sorted.records.size());
  for (std::size_t i = 0; i < first.sorted.records.size(); ++i) {
    std::uint8_t a[trace::Record::kEncodedSize];
    std::uint8_t b[trace::Record::kEncodedSize];
    first.sorted.records[i].encode(a);
    second.sorted.records[i].encode(b);
    ASSERT_EQ(std::memcmp(a, b, sizeof a), 0) << "record " << i << " differs";
  }
}

TEST(Determinism, DifferentSeedsYieldDifferentTraces) {
  const auto first = core::run_study_at_scale(kScale, 1);
  const auto second = core::run_study_at_scale(kScale, 2);
  EXPECT_NE(first.trace_digest, second.trace_digest);
}

TEST(Determinism, DigestSurvivesSerializationRoundTrip) {
  const auto study = core::run_study_at_scale(kScale, 7);
  const std::string path =
      ::testing::TempDir() + "charisma_determinism.chtr";
  study.trace.save(path);
  {
    const auto reread = trace::SpilledTrace::open(path);
    EXPECT_EQ(study.trace_digest, reread.digest());
    EXPECT_EQ(study.records, reread.record_count());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace charisma
