// The lifecycle of a scripted source's jobs: start_job .. next .. end_job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "util/check.hpp"
#include "workload/source.hpp"

namespace charisma::workload {
namespace {

std::unique_ptr<Source> small_source() {
  WorkloadConfig config;
  config.scale = 0.02;
  config.seed = 11;
  return load_source(SourceSpec{}, config);
}

/// Every op rank 0 of the started job `spec_index` yields, as comparable
/// tuples.
std::vector<std::tuple<OpKind, std::int32_t, std::int64_t, MicroSec>>
drain_rank0(Source& source, std::size_t spec_index) {
  std::vector<std::tuple<OpKind, std::int32_t, std::int64_t, MicroSec>> ops;
  for (Op op = source.next(spec_index, 0); op.kind != OpKind::kEnd;
       op = source.next(spec_index, 0)) {
    ops.emplace_back(op.kind, op.path, op.bytes, op.think);
  }
  return ops;
}

TEST(ScriptedSource, StartingAJobTwiceThrows) {
  const std::unique_ptr<Source> source = small_source();
  ASSERT_GE(source->workload().jobs.size(), 2u);
  (void)source->start_job(1);
  EXPECT_THROW((void)source->start_job(1), util::CheckFailure);
  // Other jobs are unaffected, and an index past the workload throws.
  EXPECT_NO_THROW((void)source->start_job(0));
  EXPECT_THROW((void)source->start_job(source->workload().jobs.size()),
               util::CheckFailure);
}

TEST(ScriptedSource, NextOutsideStartAndEndThrows) {
  const std::unique_ptr<Source> source = small_source();
  EXPECT_THROW((void)source->next(0, 0), util::CheckFailure);
  (void)source->start_job(0);
  EXPECT_NO_THROW((void)source->next(0, 0));
  EXPECT_THROW((void)source->next(1, 0), util::CheckFailure);
  EXPECT_THROW((void)source->next(source->workload().jobs.size(), 0),
               util::CheckFailure);
  source->end_job(0);
  EXPECT_THROW((void)source->next(0, 0), util::CheckFailure);
}

TEST(ScriptedSource, JobRestartsAfterEndJob) {
  // A restarted job compiles its scripts again and replays them from the
  // first op.
  const std::unique_ptr<Source> source = small_source();
  const std::size_t job = source->workload().jobs.size() / 2;
  const std::vector<std::string> paths = source->start_job(job);
  const auto first = drain_rank0(*source, job);
  ASSERT_FALSE(first.empty());
  source->end_job(job);
  EXPECT_EQ(source->start_job(job), paths);
  EXPECT_EQ(drain_rank0(*source, job), first);
}

}  // namespace
}  // namespace charisma::workload
