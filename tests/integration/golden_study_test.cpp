// Golden values: the scale-0.2/seed-42 study must reproduce the values
// frozen in data/golden_scale02_seed42.txt, line for line — its trace
// bounds, counts and digest, the seven headline fractions, every point of
// every figure curve, and the I/O-rate summary.  The file holds one
// "<key> <value>" pair per line.  Counts and the digest compare exactly;
// doubles compare within 1e-12 relative, because the log-spaced grids pass
// through std::pow and std::log10.  A mismatch names its line, its key (the
// value, or the curve and index), the expected and the actual value.
// StreamingDifferential (streaming_differential_test.cpp) holds the two
// readers of the merge, and every spill tier, to each other bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "../trace/study_records.hpp"
#include "analysis/analyzers.hpp"
#include "analysis/iorate.hpp"
#include "analysis/session.hpp"
#include "core/campaign.hpp"
#include "core/stream_study.hpp"
#include "trace/postprocess.hpp"
#include "trace/spill.hpp"

namespace charisma {
namespace {

/// One golden line: the value as the file prints it (%.17g, the digest as
/// 0x%016llx), and whether it must match exactly.
struct Golden {
  std::string key;
  std::string value;
  bool exact = true;  // counts and the digest; doubles compare within 1e-12
};

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The golden file's lines, in its order, from one finished study.
std::vector<Golden> golden_values(const trace::TraceHeader& header,
                                  const core::StudySummary& s,
                                  const analysis::IoRateResult& rate) {
  std::vector<Golden> out;
  const auto count = [&out](std::string key, double v) {
    out.push_back({std::move(key), g17(v), true});
  };
  const auto real = [&out](std::string key, double v) {
    out.push_back({std::move(key), g17(v), false});
  };
  count("trace_start", static_cast<double>(header.trace_start));
  count("trace_end", static_cast<double>(header.trace_end));
  count("records", static_cast<double>(s.records));
  count("events_dispatched", static_cast<double>(s.events_dispatched));
  count("total_ops", static_cast<double>(s.total_ops));
  count("sim_end", static_cast<double>(s.sim_end));
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(s.trace_digest));
  out.push_back({"trace_digest", digest, true});
  real("idle_fraction", s.idle_fraction);
  real("multiprogrammed_fraction", s.multiprogrammed_fraction);
  real("single_node_job_fraction", s.single_node_job_fraction);
  real("small_read_fraction", s.small_read_fraction);
  real("small_write_fraction", s.small_write_fraction);
  real("temporary_fraction", s.temporary_fraction);
  real("mode0_fraction", s.mode0_fraction);
  for (const auto& c : s.figures.curves) {
    for (std::size_t i = 0; i < c.xs.size(); ++i) {
      const std::string index = "[" + std::to_string(i) + "]";
      real(c.name + ".x" + index, c.xs[i]);
      real(c.name + ".y" + index, c.ys[i]);
    }
  }
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::uint64_t requests = 0;
  for (const auto& b : rate.timeline) {
    bytes_read += b.bytes_read;
    bytes_written += b.bytes_written;
    requests += b.requests;
  }
  count("io_rate.buckets", static_cast<double>(rate.timeline.size()));
  count("io_rate.bytes_read", static_cast<double>(bytes_read));
  count("io_rate.bytes_written", static_cast<double>(bytes_written));
  count("io_rate.requests", static_cast<double>(requests));
  real("io_rate.mean_mb_per_s", rate.mean_mb_per_s);
  real("io_rate.peak_mb_per_s", rate.peak_mb_per_s);
  real("io_rate.quiet_fraction", rate.quiet_fraction);
  return out;
}

std::vector<std::pair<std::string, std::string>> read_golden_file() {
  const std::string path =
      std::string(CHARISMA_GOLDEN_DATA_DIR) + "/golden_scale02_seed42.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot read " << path;
  std::vector<std::pair<std::string, std::string>> lines;
  std::string key;
  std::string value;
  while (in >> key >> value) lines.emplace_back(key, value);
  return lines;
}

struct Fixture {
  std::vector<Golden> values;

  Fixture() {
    core::StudyConfig config;
    config.workload.scale = 0.2;
    config.workload.seed = 42;
    core::StreamedStudyOutput out = core::run_streamed_study(config);
    const trace::TraceHeader header = out.header;
    const analysis::IoRateResult rate = out.io_rate;
    const core::StudySummary summary =
        core::summarize_streamed_study("golden", config, std::move(out));
    values = golden_values(header, summary, rate);
  }
};

const Fixture& fixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

TEST(GoldenStudy, MatchesFrozenScale02Seed42Values) {
  const auto expected = read_golden_file();
  const std::vector<Golden>& actual = fixture().values;
  ASSERT_EQ(actual.size(), expected.size()) << "golden line count";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& [key, want] = expected[i];
    const Golden& got = actual[i];
    ASSERT_EQ(got.key, key) << "line " << i + 1 << " names another value";
    if (got.exact) {
      EXPECT_EQ(got.value, want) << "line " << i + 1 << " (" << key
                                 << "): expected " << want << ", actual "
                                 << got.value;
      continue;
    }
    const double e = std::strtod(want.c_str(), nullptr);
    const double a = std::strtod(got.value.c_str(), nullptr);
    EXPECT_LE(std::abs(a - e), 1e-12 * std::abs(e))
        << "line " << i + 1 << " (" << key << "): expected " << want
        << ", actual " << got.value;
  }
}

// A trace with no records at all must flow through the merge without
// dividing by zero: empty store, empty histograms, finite zeros everywhere.
TEST(GoldenStudy, ZeroRecordTraceFlowsThroughTheMerge) {
  trace::TraceHeader header;
  header.compute_nodes = 4;
  header.io_nodes = 2;
  header.trace_start = 0;
  header.trace_end = 0;
  header.label = "degenerate";

  trace::SpillWriter writer(
      trace::SpillTarget::anonymous_in(::testing::TempDir()), header);
  const trace::SpilledTrace spilled = writer.finish(header.trace_end);
  EXPECT_TRUE(spilled.blocks.empty());

  analysis::SessionAccumulator sessions;
  analysis::RequestSizeAccumulator requests;
  analysis::IoRateAccumulator io_rate(0, 0);
  trace::fixtures::CollectSink collect;
  EXPECT_EQ(trace::stream_postprocess(
                spilled, {&sessions, &requests, &io_rate, &collect}),
            0u);
  const analysis::SessionStore store = sessions.take(spilled.header);
  const analysis::RequestSizeResult req = requests.finish();
  const analysis::IoRateResult rate = io_rate.finish();

  EXPECT_TRUE(collect.records.empty());
  EXPECT_EQ(spilled.header.label, "degenerate");
  EXPECT_TRUE(store.sessions().empty());
  EXPECT_TRUE(store.read_only_sessions().empty());
  EXPECT_EQ(req.small_read_fraction, 0.0);
  EXPECT_EQ(req.small_write_fraction, 0.0);
  EXPECT_EQ(rate.mean_mb_per_s, 0.0);
  EXPECT_EQ(rate.peak_mb_per_s, 0.0);

  // The degenerate case must not poison figure collection either.
  const auto figs = analysis::collect_trace_figures(store, req,
                                                    header.block_size);
  ASSERT_FALSE(figs.curves.empty());
  for (const auto& c : figs.curves) {
    SCOPED_TRACE(c.name);
    for (const double y : c.ys) EXPECT_EQ(y, 0.0);
  }
}

}  // namespace
}  // namespace charisma
