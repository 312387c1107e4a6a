#include "analysis/analyzers.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../trace/study_records.hpp"

namespace charisma::analysis {
namespace {

using trace::fixtures::request_sizes_of;
using trace::fixtures::sessions_of;

using trace::EventKind;

trace::Record rec(EventKind kind, cfs::JobId job, cfs::NodeId node,
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

trace::Record job_event(bool start, cfs::JobId job, std::int32_t nodes,
                        util::MicroSec t) {
  auto r = rec(start ? EventKind::kJobStart : EventKind::kJobEnd, job,
               trace::kServiceNode, cfs::kNoFile);
  r.aux = nodes;
  r.timestamp = t;
  return r;
}

TEST(JobConcurrency, ComputesTimeAtEachLevel) {
  // [0,10) idle, [10,40) one job, [40,60) two jobs, [60,80) one, [80,100) idle
  const std::vector<trace::Record> records = {
      job_event(true, 1, 4, 10),
      job_event(true, 2, 8, 40),
      job_event(false, 1, 4, 60),
      job_event(false, 2, 8, 80),
  };
  const SessionStore store = sessions_of(records, 0, 100);
  const auto r = analyze_job_concurrency(store);
  EXPECT_NEAR(r.time_fraction[0], 0.3, 1e-9);
  EXPECT_NEAR(r.time_fraction[1], 0.5, 1e-9);
  EXPECT_NEAR(r.time_fraction[2], 0.2, 1e-9);
  EXPECT_NEAR(r.idle_fraction, 0.3, 1e-9);
  EXPECT_NEAR(r.multiprogrammed_fraction, 0.2, 1e-9);
  EXPECT_EQ(r.max_concurrent, 2);
  EXPECT_FALSE(r.render().empty());
}

TEST(JobConcurrency, EmptyTraceIsSafe) {
  const SessionStore store = sessions_of({});
  const auto r = analyze_job_concurrency(store);
  EXPECT_TRUE(r.time_fraction.empty());
}

TEST(NodeCounts, DistributionAndUsageShares) {
  const std::vector<trace::Record> records = {
      job_event(true, 1, 1, 0),    job_event(false, 1, 1, 100),
      job_event(true, 2, 1, 0),    job_event(false, 2, 1, 100),
      job_event(true, 3, 64, 0),   job_event(false, 3, 64, 100),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_node_counts(store);
  EXPECT_EQ(r.total_jobs, 3);
  EXPECT_EQ(r.jobs_by_nodes.at(1), 2);
  EXPECT_EQ(r.jobs_by_nodes.at(64), 1);
  EXPECT_NEAR(r.single_node_job_fraction, 2.0 / 3.0, 1e-9);
  // 64-node job dominates node-time: 6400 of 6600 node-units.
  EXPECT_NEAR(r.large_job_usage_share, 6400.0 / 6600.0, 1e-9);
}

TEST(FileSizes, CdfOverSizeAtClose) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 10000),
      rec(EventKind::kOpen, 1, 0, 2),
      rec(EventKind::kClose, 1, 0, 2, 0, 0, 500000),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_file_sizes(store);
  EXPECT_EQ(r.files, 2);
  EXPECT_DOUBLE_EQ(r.cdf.at(10000), 0.5);
  EXPECT_DOUBLE_EQ(r.cdf.at(500000), 1.0);
  EXPECT_NEAR(r.fraction_between_10k_1m, 0.5, 1e-9);
}

TEST(RequestSizes, SplitsCountsAndBytes) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kRead, 1, 0, 1, 100, 100),
      rec(EventKind::kRead, 1, 0, 1, 200, 1000000),
      rec(EventKind::kWrite, 1, 0, 2, 0, 3999),
      rec(EventKind::kWrite, 1, 0, 2, 3999, 4000),
  };
  const auto r = request_sizes_of(records);
  EXPECT_EQ(r.read_requests, 3u);
  EXPECT_EQ(r.write_requests, 2u);
  EXPECT_EQ(r.bytes_read, 1000200);
  EXPECT_NEAR(r.small_read_fraction, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.small_read_data_fraction, 200.0 / 1000200.0, 1e-9);
  EXPECT_NEAR(r.small_write_fraction, 0.5, 1e-9);  // 4000 is NOT < 4000
}

TEST(Sequentiality, ClassifiesPerFile) {
  const std::vector<trace::Record> records = {
      // File 1: read-only, fully consecutive.
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kRead, 1, 0, 1, 100, 100),
      rec(EventKind::kClose, 1, 0, 1),
      // File 2: read-only, sequential but never consecutive.
      rec(EventKind::kOpen, 1, 0, 2),
      rec(EventKind::kRead, 1, 0, 2, 0, 100),
      rec(EventKind::kRead, 1, 0, 2, 500, 100),
      rec(EventKind::kRead, 1, 0, 2, 900, 100),
      rec(EventKind::kClose, 1, 0, 2),
      // File 3: single request -> excluded.
      rec(EventKind::kOpen, 1, 0, 3),
      rec(EventKind::kRead, 1, 0, 3, 0, 100),
      rec(EventKind::kClose, 1, 0, 3),
      // File 4: write-only non-sequential.
      rec(EventKind::kOpen, 1, 0, 4),
      rec(EventKind::kWrite, 1, 0, 4, 500, 100),
      rec(EventKind::kWrite, 1, 0, 4, 0, 100),
      rec(EventKind::kClose, 1, 0, 4),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_sequentiality(store);
  EXPECT_EQ(r.read_only.files, 2);
  EXPECT_NEAR(r.read_only.fully_sequential, 1.0, 1e-9);
  EXPECT_NEAR(r.read_only.fully_consecutive, 0.5, 1e-9);
  EXPECT_NEAR(r.read_only.zero_consecutive, 0.5, 1e-9);
  EXPECT_EQ(r.write_only.files, 1);
  EXPECT_NEAR(r.write_only.zero_sequential, 1.0, 1e-9);
}

TEST(Sharing, ByteAndBlockGranularity) {
  const std::vector<trace::Record> records = {
      // File 1: two nodes, concurrently open, disjoint halves of one block.
      rec(EventKind::kOpen, 1, 0, 1, 0, 0, 0, 1),
      rec(EventKind::kOpen, 1, 1, 1, 0, 0, 0, 2),
      rec(EventKind::kRead, 1, 0, 1, 0, 2048, 0, 3),
      rec(EventKind::kRead, 1, 1, 1, 2048, 2048, 0, 4),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 0, 5),
      rec(EventKind::kClose, 1, 1, 1, 0, 0, 0, 6),
      // File 2: both nodes read everything (fully byte-shared).
      rec(EventKind::kOpen, 1, 0, 2, 0, 0, 0, 1),
      rec(EventKind::kOpen, 1, 1, 2, 0, 0, 0, 2),
      rec(EventKind::kRead, 1, 0, 2, 0, 8192, 0, 3),
      rec(EventKind::kRead, 1, 1, 2, 0, 8192, 0, 4),
      rec(EventKind::kClose, 1, 0, 2, 0, 0, 0, 5),
      rec(EventKind::kClose, 1, 1, 2, 0, 0, 0, 6),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_sharing(store, 4096);
  EXPECT_EQ(r.read_only.files, 2);
  EXPECT_NEAR(r.read_only.fully_byte_shared, 0.5, 1e-9);
  EXPECT_NEAR(r.read_only.no_bytes_shared, 0.5, 1e-9);
  // File 1 is 0% byte-shared but 100% block-shared (one 4 KB block).
  EXPECT_NEAR(r.read_only.fully_block_shared, 1.0, 1e-9);
}

TEST(Sharing, NonConcurrentFilesExcluded) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1, 0, 0, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100, 0, 2),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 0, 3),
      rec(EventKind::kOpen, 1, 1, 1, 0, 0, 0, 4),
      rec(EventKind::kRead, 1, 1, 1, 0, 100, 0, 5),
      rec(EventKind::kClose, 1, 1, 1, 0, 0, 0, 6),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_sharing(store, 4096);
  EXPECT_EQ(r.read_only.files, 0);
}

TEST(FilesPerJob, BucketsAndMax) {
  std::vector<trace::Record> records;
  // Job 1 opens 1 file; job 2 opens 4; job 3 opens 6.
  for (int f = 0; f < 1; ++f) {
    records.push_back(rec(EventKind::kOpen, 1, 0, f));
  }
  for (int f = 10; f < 14; ++f) {
    records.push_back(rec(EventKind::kOpen, 2, 0, f));
  }
  for (int f = 20; f < 26; ++f) {
    records.push_back(rec(EventKind::kOpen, 3, 0, f));
  }
  const SessionStore store = sessions_of(records);
  const auto r = analyze_files_per_job(store);
  EXPECT_EQ(r.buckets[0], 1);
  EXPECT_EQ(r.buckets[3], 1);
  EXPECT_EQ(r.buckets[4], 1);
  EXPECT_EQ(r.traced_jobs_with_files, 3);
  EXPECT_EQ(r.max_files_one_job, 6);
}

TEST(Intervals, BucketsByDistinctCount) {
  const std::vector<trace::Record> records = {
      // File 1: one access per node -> 0 intervals.
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kClose, 1, 0, 1),
      // File 2: consecutive -> 1 interval (0).
      rec(EventKind::kOpen, 1, 0, 2),
      rec(EventKind::kWrite, 1, 0, 2, 0, 100),
      rec(EventKind::kWrite, 1, 0, 2, 100, 100),
      rec(EventKind::kClose, 1, 0, 2),
      // File 3: bursts with a fixed skip -> 2 intervals {0, 200}.
      rec(EventKind::kOpen, 1, 0, 3),
      rec(EventKind::kRead, 1, 0, 3, 0, 100),
      rec(EventKind::kRead, 1, 0, 3, 100, 100),
      rec(EventKind::kRead, 1, 0, 3, 400, 100),
      rec(EventKind::kRead, 1, 0, 3, 500, 100),
      rec(EventKind::kClose, 1, 0, 3),
      // File 4: untouched -> excluded entirely.
      rec(EventKind::kOpen, 1, 0, 4),
      rec(EventKind::kClose, 1, 0, 4),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_intervals(store);
  EXPECT_EQ(r.total_files, 3);
  EXPECT_EQ(r.buckets[0], 1);
  EXPECT_EQ(r.buckets[1], 1);
  EXPECT_EQ(r.buckets[2], 1);
  EXPECT_NEAR(r.one_interval_consecutive_share, 1.0, 1e-9);
}

TEST(RequestRegularity, CountsDistinctSizes) {
  const std::vector<trace::Record> records = {
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kWrite, 1, 0, 1, 0, 512),
      rec(EventKind::kWrite, 1, 0, 1, 512, 100),
      rec(EventKind::kWrite, 1, 0, 1, 612, 100),
      rec(EventKind::kClose, 1, 0, 1),
      rec(EventKind::kOpen, 1, 0, 2),
      rec(EventKind::kClose, 1, 0, 2),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_request_regularity(store);
  EXPECT_EQ(r.total_files, 2);
  EXPECT_EQ(r.buckets[0], 1);  // untouched has 0 sizes
  EXPECT_EQ(r.buckets[2], 1);  // {512, 100}
  EXPECT_NEAR(r.one_or_two_sizes_share, 0.5, 1e-9);
}

TEST(FilePopulation, CountsAndMeans) {
  auto created = rec(EventKind::kOpen, 1, 0, 1);
  created.bytes = 1;
  const std::vector<trace::Record> records = {
      created,
      rec(EventKind::kWrite, 1, 0, 1, 0, 1000),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 1000),
      rec(EventKind::kDelete, 1, 0, 1),
      rec(EventKind::kOpen, 1, 0, 2),
      rec(EventKind::kRead, 1, 0, 2, 0, 3000),
      rec(EventKind::kClose, 1, 0, 2, 0, 0, 5000),
  };
  const SessionStore store = sessions_of(records);
  const auto r = analyze_file_population(store);
  EXPECT_EQ(r.sessions, 2);
  EXPECT_EQ(r.write_only, 1);
  EXPECT_EQ(r.read_only, 1);
  EXPECT_EQ(r.temporary, 1);
  EXPECT_NEAR(r.temporary_fraction, 0.5, 1e-9);
  EXPECT_NEAR(r.mean_bytes_read_per_read_file, 3000.0, 1e-9);
  EXPECT_NEAR(r.mean_bytes_written_per_write_file, 1000.0, 1e-9);
}

TEST(ModeUsage, CountsModes) {
  auto open0 = rec(EventKind::kOpen, 1, 0, 1);
  open0.aux = trace::pack_open_aux(cfs::kRead, cfs::IoMode::kIndependent);
  auto open1 = rec(EventKind::kOpen, 1, 0, 2);
  open1.aux = trace::pack_open_aux(cfs::kRead, cfs::IoMode::kOrdered);
  const std::vector<trace::Record> records = {
      open0, rec(EventKind::kClose, 1, 0, 1), open1,
      rec(EventKind::kClose, 1, 0, 2)};
  const SessionStore store = sessions_of(records);
  const auto r = analyze_mode_usage(store);
  EXPECT_EQ(r.sessions_by_mode[0], 1);
  EXPECT_EQ(r.sessions_by_mode[2], 1);
  EXPECT_NEAR(r.mode0_fraction, 0.5, 1e-9);
}

TEST(Renderers, ProduceNonEmptyOutput) {
  const std::vector<trace::Record> records = {
      job_event(true, 1, 2, 0),
      rec(EventKind::kOpen, 1, 0, 1),
      rec(EventKind::kRead, 1, 0, 1, 0, 100),
      rec(EventKind::kClose, 1, 0, 1, 0, 0, 100),
      job_event(false, 1, 2, 50),
  };
  const SessionStore store = sessions_of(records);
  EXPECT_FALSE(analyze_node_counts(store).render().empty());
  EXPECT_FALSE(analyze_file_sizes(store).render().empty());
  EXPECT_FALSE(request_sizes_of(records).render().empty());
  EXPECT_FALSE(analyze_sequentiality(store).render().empty());
  EXPECT_FALSE(analyze_sharing(store, 4096).render().empty());
  EXPECT_FALSE(analyze_files_per_job(store).render().empty());
  EXPECT_FALSE(analyze_intervals(store).render().empty());
  EXPECT_FALSE(analyze_request_regularity(store).render().empty());
  EXPECT_FALSE(analyze_file_population(store).render().empty());
  EXPECT_FALSE(analyze_mode_usage(store).render().empty());
}

}  // namespace
}  // namespace charisma::analysis
