// Differential: the study's two readers of the one postprocessing merge must
// agree *bit for bit*.  One side is run_streamed_study: the accumulators
// that see each record once, in merge order, and the grouped cache sweeps
// replayed from the spilled replay ops (ReplayOpSink, the spill tiers,
// ReplayLog's flag pass, the stack / stamp kernels).  The other is the
// merge's records collected by a test sink and fed afresh to the
// accumulators, and for the cache figures — the one independent oracle —
// through a test-local op filter and one per-config simulator run per
// point, which share no code with the streamed side's op path or kernels.
// Same digest, same statistics, same figure curves, same exported TSV
// bytes, at the pinned scale-0.2/seed-42 configuration and across every
// spill tier configuration.  GoldenStudy (golden_study_test.cpp) pins the
// values themselves; this suite pins that the two readers cannot drift
// apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "../cache/replay_testing.hpp"
#include "../trace/study_records.hpp"
#include "analysis/analyzers.hpp"
#include "analysis/iorate.hpp"
#include "analysis/session.hpp"
#include "cache/simulators.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/stream_study.hpp"

namespace charisma {
namespace {

// The determinism anchor every PR re-verifies (ROADMAP).
constexpr std::uint64_t kExpectedDigest = 0x5d6c862d0a86afe1ull;

/// The study summary recomputed from the collected records alone: the
/// digest re-folded from the finished raw trace, the statistics from fresh
/// accumulators fed the records, and the cache figures from per-config
/// simulator runs over fixtures::reference_ops(records).  None of it reads
/// the study's own accumulators' finished state or its replay-op spill.
/// The figures come in summarize_streamed_study's order, so the two
/// summaries export to the same TSV names.
core::StudySummary summarize_collected(
    const std::string& label, const core::StudyConfig& config,
    const trace::fixtures::CollectedStudy& study) {
  const trace::TraceHeader& header = study.trace.header;
  core::StudySummary s;
  s.label = label;
  s.seed = config.workload.seed;
  s.scale = config.workload.scale;
  s.trace_digest = study.trace.digest();
  s.events_dispatched = study.out.events_dispatched;
  s.records = study.records.size();
  s.total_ops = study.out.total_ops;
  s.sim_end = study.out.sim_end;

  const analysis::SessionStore store = trace::fixtures::sessions_of(
      study.records, header.trace_start, header.trace_end);
  const auto concurrency = analysis::analyze_job_concurrency(store);
  s.idle_fraction = concurrency.idle_fraction;
  s.multiprogrammed_fraction = concurrency.multiprogrammed_fraction;
  s.single_node_job_fraction =
      analysis::analyze_node_counts(store).single_node_job_fraction;
  const auto requests = trace::fixtures::request_sizes_of(study.records);
  s.small_read_fraction = requests.small_read_fraction;
  s.small_write_fraction = requests.small_write_fraction;
  s.temporary_fraction =
      analysis::analyze_file_population(store).temporary_fraction;
  s.mode0_fraction = analysis::analyze_mode_usage(store).mode0_fraction;

  s.figures =
      analysis::collect_trace_figures(store, requests, header.block_size);
  const cache::ReplayLog ops(cache::fixtures::reference_ops(
      study.records, store.read_only_sessions()));

  // Figure 8: 1-buffer and 50-buffer per-node caches, sampled as CDFs.
  const auto fracs = analysis::fraction_grid();
  const auto sample = [&](std::size_t buffers) {
    cache::ComputeCacheConfig cfg;
    cfg.buffers_per_node = buffers;
    const cache::ComputeCacheResult r = cache::simulate_compute_cache(ops, cfg);
    std::vector<double> ys;
    for (const double x : fracs) ys.push_back(r.hit_rate_cdf.at(x));
    return ys;
  };
  s.figures.add("fig8_1buf", fracs, sample(1));
  s.figures.add("fig8_50buf", fracs, sample(50));

  // Figure 9: the buffer grid under LRU, then FIFO.
  const auto buffers = analysis::fig9_buffer_grid();
  const auto hit_rates = [&](cache::Policy policy) {
    std::vector<double> ys;
    for (const double b : buffers) {
      cache::IoNodeSimConfig cfg;
      cfg.io_nodes = header.io_nodes;
      cfg.total_buffers = static_cast<std::size_t>(b);
      cfg.policy = policy;
      ys.push_back(cache::simulate_io_cache(ops, cfg).hit_rate);
    }
    return ys;
  };
  s.figures.add("fig9_lru", buffers, hit_rates(cache::Policy::kLru));
  s.figures.add("fig9_fifo", buffers, hit_rates(cache::Policy::kFifo));
  return s;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Exports `s` as a one-study campaign into `dir`.
void export_to(const core::StudySummary& s, const std::string& dir) {
  core::CampaignResult r;
  r.studies = {s};
  r.aggregates = core::aggregate_campaign(r.studies);
  r.figure_envelopes = core::fold_figure_envelopes(r.studies);
  std::filesystem::create_directories(dir);
  (void)core::export_campaign(r, dir);
}

struct Fixture {
  core::StudyConfig config;
  trace::fixtures::CollectedStudy col;
  core::StudySummary col_summary;

  trace::TraceHeader str_header;
  std::uint64_t str_digest = 0;
  std::uint64_t str_records = 0;
  analysis::IoRateResult str_io_rate;
  core::StudySummary str_summary;

  Fixture() {
    config.workload.scale = 0.2;
    config.workload.seed = 42;
    core::StreamedStudyOutput s = core::run_streamed_study(config);
    str_header = s.header;
    str_digest = s.trace_digest;
    str_records = s.streamed_records;
    str_io_rate = s.io_rate;
    str_summary = core::summarize_streamed_study("scale0.2_seed42", config,
                                                 std::move(s));
    col = trace::fixtures::collect_study(config);
    col_summary = summarize_collected("scale0.2_seed42", config, col);
  }
};

const Fixture& fixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

TEST(StreamingDifferential, DigestsMatchAndArePinned) {
  const auto& f = fixture();
  EXPECT_EQ(f.str_digest, kExpectedDigest);
  EXPECT_EQ(f.col.out.trace_digest, kExpectedDigest);
  // Re-folded from the finished raw trace, and from the trace saved to a
  // file and reopened: the digest the collector's stream folded is the
  // trace's, and save() writes the bytes it folds.
  EXPECT_EQ(f.col_summary.trace_digest, kExpectedDigest);
  const std::string path = ::testing::TempDir() + "charisma_differential.chtr";
  f.col.trace.save(path);
  EXPECT_EQ(trace::SpilledTrace::open(path).digest(), kExpectedDigest);
  std::remove(path.c_str());
  EXPECT_EQ(f.str_summary.trace_digest, f.col_summary.trace_digest);
}

TEST(StreamingDifferential, HeadersAndCountsMatch) {
  const auto& f = fixture();
  for (const trace::TraceHeader* h : {&f.col.trace.header, &f.col.out.header}) {
    EXPECT_EQ(f.str_header.label, h->label);
    EXPECT_EQ(f.str_header.trace_start, h->trace_start);
    EXPECT_EQ(f.str_header.trace_end, h->trace_end);
    EXPECT_EQ(f.str_header.seed, h->seed);
  }
  EXPECT_EQ(f.str_records, f.col.records.size());
  EXPECT_EQ(f.str_records, f.col.trace.record_count());
  EXPECT_EQ(f.str_summary.records, f.col_summary.records);
  EXPECT_EQ(f.str_summary.events_dispatched, f.col_summary.events_dispatched);
  EXPECT_EQ(f.str_summary.total_ops, f.col_summary.total_ops);
  EXPECT_EQ(f.str_summary.sim_end, f.col_summary.sim_end);
}

TEST(StreamingDifferential, MeasuredStatisticsExactlyEqual) {
  const auto& a = fixture().str_summary;
  const auto& b = fixture().col_summary;
  // Exact (not approximate) equality: both sides run the same
  // accumulators over the same merged stream, so the doubles must be
  // bitwise identical, not merely close.
  EXPECT_EQ(a.idle_fraction, b.idle_fraction);
  EXPECT_EQ(a.multiprogrammed_fraction, b.multiprogrammed_fraction);
  EXPECT_EQ(a.single_node_job_fraction, b.single_node_job_fraction);
  EXPECT_EQ(a.small_read_fraction, b.small_read_fraction);
  EXPECT_EQ(a.small_write_fraction, b.small_write_fraction);
  EXPECT_EQ(a.temporary_fraction, b.temporary_fraction);
  EXPECT_EQ(a.mode0_fraction, b.mode0_fraction);
}

TEST(StreamingDifferential, FigureCurvesExactlyEqual) {
  const auto& a = fixture().str_summary.figures;
  const auto& b = fixture().col_summary.figures;
  ASSERT_EQ(a.curves.size(), b.curves.size());
  ASSERT_FALSE(a.curves.empty());
  for (std::size_t i = 0; i < a.curves.size(); ++i) {
    SCOPED_TRACE(a.curves[i].name);
    EXPECT_EQ(a.curves[i].name, b.curves[i].name);
    EXPECT_EQ(a.curves[i].xs, b.curves[i].xs);
    EXPECT_EQ(a.curves[i].ys, b.curves[i].ys);
  }
}

TEST(StreamingDifferential, IoRateTimelineExactlyEqual) {
  const trace::fixtures::CollectedStudy& col = fixture().col;
  const analysis::IoRateResult col_rate = trace::fixtures::io_rate_of(
      col.records, col.trace.header.trace_start, col.trace.header.trace_end);
  const analysis::IoRateResult& str_rate = fixture().str_io_rate;
  ASSERT_EQ(str_rate.timeline.size(), col_rate.timeline.size());
  ASSERT_FALSE(col_rate.timeline.empty());
  for (std::size_t i = 0; i < col_rate.timeline.size(); ++i) {
    EXPECT_EQ(str_rate.timeline[i].start, col_rate.timeline[i].start);
    EXPECT_EQ(str_rate.timeline[i].bytes_read, col_rate.timeline[i].bytes_read);
    EXPECT_EQ(str_rate.timeline[i].bytes_written,
              col_rate.timeline[i].bytes_written);
    EXPECT_EQ(str_rate.timeline[i].requests, col_rate.timeline[i].requests);
  }
  EXPECT_EQ(str_rate.mean_mb_per_s, col_rate.mean_mb_per_s);
  EXPECT_EQ(str_rate.peak_mb_per_s, col_rate.peak_mb_per_s);
  EXPECT_EQ(str_rate.quiet_fraction, col_rate.quiet_fraction);
}

TEST(StreamingDifferential, ExportedCampaignTsvsByteIdentical) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir();
  const std::string dir_str = base + "charisma_diff_str";
  const std::string dir_col = base + "charisma_diff_col";
  export_to(fixture().str_summary, dir_str);
  export_to(fixture().col_summary, dir_col);

  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir_str)) {
    names.insert(e.path().filename().string());
  }
  ASSERT_GT(names.size(), 10u);  // studies + aggregate + per-figure TSVs
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(fs::exists(fs::path(dir_col) / name));
    EXPECT_EQ(slurp(fs::path(dir_str) / name), slurp(fs::path(dir_col) / name));
  }
  fs::remove_all(dir_str);
  fs::remove_all(dir_col);
}

/// Counts what the merge pushed: every record, the records the replay-op
/// filter must keep (reads and writes that move bytes), and the bytes of the
/// read and write records.
struct CountingSink final : trace::RecordSink {
  std::uint64_t records = 0;
  std::uint64_t data_records = 0;
  std::int64_t data_bytes = 0;
  void on_record(const trace::Record& r) override {
    ++records;
    if (r.kind == trace::EventKind::kRead ||
        r.kind == trace::EventKind::kWrite) {
      data_bytes += r.bytes;
      if (r.bytes > 0) ++data_records;
    }
  }
};

/// The conservation laws of one study, across the collector, the spill, the
/// merge and the replay-op sink.  `seen` rode the study's merge.
void expect_conservation_laws(const trace::SpilledTrace& spilled,
                              const core::StreamedStudyOutput& out,
                              const CountingSink& seen) {
  EXPECT_EQ(spilled.record_count(), out.records)
      << "law 1: the spill holds every record the collector saw";
  EXPECT_EQ(out.streamed_records, out.records)
      << "law 1: the merge pushes every spilled record";
  EXPECT_EQ(seen.records, out.records)
      << "law 1: every sink sees every merged record";
  // Job events are one-record service-node blocks, not collector messages.
  const auto node_blocks = static_cast<std::uint64_t>(
      std::count_if(spilled.blocks.begin(), spilled.blocks.end(),
                    [](const trace::SpillBlock& b) {
                      return b.node != trace::kServiceNode;
                    }));
  EXPECT_EQ(node_blocks, out.collector_messages)
      << "law 2: one compute-node block per collector message";
  EXPECT_EQ(out.replay_ops.count(), seen.data_records)
      << "law 3: one replay op per read or write record that moves bytes";
  EXPECT_EQ(out.spill.trace_blocks_in_memory + out.spill.trace_blocks_on_disk,
            spilled.blocks.size())
      << "law 4: every trace block lands in exactly one tier";
  EXPECT_EQ(out.spill.ops_chunks_in_memory + out.spill.ops_chunks_on_disk,
            out.replay_ops.chunks().size())
      << "law 4: every replay-op chunk lands in exactly one tier";
  std::int64_t job_bytes = 0;
  std::int64_t traced_job_bytes = 0;
  for (const workload::JobResult& job : out.jobs) {
    job_bytes += job.bytes;
    if (job.traced) traced_job_bytes += job.bytes;
  }
  EXPECT_GT(traced_job_bytes, 0);
  EXPECT_EQ(job_bytes, out.user_bytes_moved)
      << "law 5: every byte granted to a job moves through a disk "
         "(driver -> client -> plan -> I/O node -> disk; no cache)";
  EXPECT_EQ(traced_job_bytes, seen.data_bytes)
      << "law 5: every byte granted to a traced job is in a merged data "
         "record (driver -> instrumented client -> collector -> spill -> "
         "merge)";
}

// The spill budget / async matrix: every point must land on the same
// digest, the same (bitwise) statistics and figure curves, and the same
// exported TSV bytes as the collected records read through fresh
// accumulators — the tiers move bytes between RAM and disk, never change
// them — and must keep the conservation laws.  Run at a smaller scale so
// the whole matrix stays test-suite-sized.
TEST(StreamingBudgetMatrix, EveryTierConfigurationMatchesMaterialized) {
  namespace fs = std::filesystem;
  core::StudyConfig config;
  config.workload.scale = 0.05;
  config.workload.seed = 7;
  const trace::fixtures::CollectedStudy col =
      trace::fixtures::collect_study(config);
  const core::StudySummary col_summary =
      summarize_collected("budget_matrix", config, col);

  struct Case {
    const char* name;
    std::int64_t budget_mb;  // memory-tier budget
    bool async;
  };
  const Case cases[] = {
      {"all_disk_sync", 0, false},
      {"all_disk_async", 0, true},
      {"mixed_async", 1, true},
      {"ops_split", 18, true},
      {"all_memory", std::int64_t{4} << 10, true},
  };

  const std::string col_dir = ::testing::TempDir() + "charisma_matrix_col";
  export_to(col_summary, col_dir);
  ASSERT_GT(std::distance(fs::directory_iterator(col_dir),
                          fs::directory_iterator()),
            10);  // studies + aggregate + per-figure TSVs

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::StudyConfig tiered = config;
    tiered.spill_budget_mb = c.budget_mb;
    core::StreamOptions sopts;
    sopts.async_spill = c.async;
    CountingSink seen;
    core::StreamedStudyOutput out;
    const trace::SpilledTrace spilled =
        core::stream_study(tiered, sopts, out, {&seen});
    expect_conservation_laws(spilled, out, seen);

    EXPECT_EQ(out.trace_digest, col_summary.trace_digest);
    EXPECT_EQ(out.streamed_records, col.records.size());
    EXPECT_EQ(out.spill.spill_budget_mb, c.budget_mb);
    if (c.budget_mb == 0) {
      // Budget 0 forces the all-disk behavior.
      EXPECT_EQ(out.spill.trace_blocks_in_memory, 0u);
      EXPECT_GT(out.spill.trace_blocks_on_disk, 0u);
      EXPECT_EQ(out.spill.ops_chunks_in_memory, 0u);
      EXPECT_GT(out.spill.spill_bytes_written, 0);
    } else if (c.budget_mb == 1) {
      // 1 MiB is mid-trace for scale 0.05: both tiers populated, and the
      // trace leaves no room for a single op chunk.
      EXPECT_GT(out.spill.trace_blocks_in_memory, 0u);
      EXPECT_GT(out.spill.trace_blocks_on_disk, 0u);
      EXPECT_EQ(out.spill.ops_chunks_in_memory, 0u);
    } else if (c.budget_mb == 18) {
      // 18 MiB holds the whole trace and splits the op spill: a resident
      // prefix of chunks, the rest on disk.
      EXPECT_EQ(out.spill.trace_blocks_on_disk, 0u);
      EXPECT_GT(out.spill.ops_chunks_in_memory, 0u);
      EXPECT_GT(out.spill.ops_chunks_on_disk, 0u);
    } else {
      // A huge budget keeps everything resident: zero file I/O.
      EXPECT_EQ(out.spill.trace_blocks_on_disk, 0u);
      EXPECT_EQ(out.spill.ops_chunks_on_disk, 0u);
      EXPECT_EQ(out.spill.spill_bytes_written, 0);
      EXPECT_EQ(out.spill.spill_bytes_read, 0);
    }

    const core::StudySummary summary =
        core::summarize_streamed_study("budget_matrix", config,
                                       std::move(out));
    EXPECT_EQ(summary.trace_digest, col_summary.trace_digest);
    EXPECT_EQ(summary.idle_fraction, col_summary.idle_fraction);
    EXPECT_EQ(summary.multiprogrammed_fraction,
              col_summary.multiprogrammed_fraction);
    EXPECT_EQ(summary.single_node_job_fraction,
              col_summary.single_node_job_fraction);
    EXPECT_EQ(summary.small_read_fraction, col_summary.small_read_fraction);
    EXPECT_EQ(summary.small_write_fraction, col_summary.small_write_fraction);
    EXPECT_EQ(summary.temporary_fraction, col_summary.temporary_fraction);
    EXPECT_EQ(summary.mode0_fraction, col_summary.mode0_fraction);
    ASSERT_EQ(summary.figures.curves.size(),
              col_summary.figures.curves.size());
    for (std::size_t i = 0; i < summary.figures.curves.size(); ++i) {
      SCOPED_TRACE(summary.figures.curves[i].name);
      EXPECT_EQ(summary.figures.curves[i].xs,
                col_summary.figures.curves[i].xs);
      EXPECT_EQ(summary.figures.curves[i].ys,
                col_summary.figures.curves[i].ys);
    }

    const std::string dir =
        ::testing::TempDir() + "charisma_matrix_" + c.name;
    export_to(summary, dir);
    for (const auto& e : fs::directory_iterator(col_dir)) {
      const auto name = e.path().filename();
      SCOPED_TRACE(name.string());
      ASSERT_TRUE(fs::exists(fs::path(dir) / name));
      EXPECT_EQ(slurp(fs::path(dir) / name), slurp(e.path()));
    }
    fs::remove_all(dir);
  }
  fs::remove_all(col_dir);
}

}  // namespace
}  // namespace charisma
