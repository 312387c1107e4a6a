// Paper-fidelity regression suite: one fixed-seed study (the recorded
// benchmark configuration, scale 0.2 / seed 42) must keep every measured
// headline statistic and every per-figure curve inside the documented
// tolerance bands around the published values (analysis::paper).  Drift —
// from the generator, the simulator, the analyzers, or the figure
// sampling — fails ctest instead of silently invalidating EXPERIMENTS.md.
//
// The bands themselves live in analysis/fidelity.cpp and are documented in
// EXPERIMENTS.md ("Fidelity bands").
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "../cache/replay_testing.hpp"
#include "analysis/fidelity.hpp"
#include "analysis/figures.hpp"
#include "analysis/paper.hpp"
#include "cache/simulators.hpp"
#include "core/campaign.hpp"

namespace charisma::analysis {
namespace {

constexpr double kScale = 0.2;
constexpr std::uint64_t kSeed = 42;
// The recorded digest of this exact configuration (BENCH_study.json); any
// behavioural change to the workload or simulator shows up here first.
constexpr std::uint64_t kExpectedDigest = 0x5d6c862d0a86afe1ull;

/// The study and its summary are shared across tests (a full scale-0.2 run
/// is the expensive part; every assertion reads from it).  One merge feeds
/// both: the summary's accumulators and replay ops, and a second replay-op
/// sink the compute-cache simulation replays (the summary consumes the
/// study's own op spill).
struct Fixture {
  std::uint64_t digest = 0;
  std::int64_t block_size = 0;
  SessionStore store;
  RequestSizeResult request_sizes;
  core::StudySummary summary;
  cache::ComputeCacheResult compute;

  Fixture() {
    core::StreamedStudyOutput out;
    trace::SpillBudget budget(cache::fixtures::kResidentBudget);
    cache::ReplayOpSinkOptions options;
    options.budget = &budget;
    cache::ReplayOpSink ops(options);
    (void)core::stream_study(fidelity_config(), {}, out, {&ops});
    digest = out.trace_digest;
    block_size = out.header.block_size;
    store = out.sessions;
    request_sizes = out.request_sizes;
    compute = cache::simulate_compute_cache(
        cache::ReplayLog(ops.finish(), store.read_only_sessions()),
        cache::ComputeCacheConfig{});
    summary = core::summarize_streamed_study("fidelity", fidelity_config(),
                                             std::move(out));
  }

  static core::StudyConfig fidelity_config() {
    core::StudyConfig config;
    config.workload.scale = kScale;
    config.workload.seed = kSeed;
    return config;
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(PaperFidelity, TraceDigestIsPinned) {
  EXPECT_EQ(fixture().digest, kExpectedDigest)
      << "the scale-0.2/seed-42 trace changed; if intentional, re-record "
         "BENCH_study.json and update this pin";
}

TEST(PaperFidelity, EveryCheckInsideItsBand) {
  const Fixture& f = fixture();
  const CacheFigures cache_figs{f.compute.fraction_jobs_above_75,
                                f.compute.fraction_jobs_zero};
  const auto checks = check_paper_fidelity(
      f.store, f.request_sizes, f.block_size, &cache_figs);
  ASSERT_GE(checks.size(), 30u);
  for (const auto& c : checks) {
    EXPECT_TRUE(c.pass())
        << c.figure << "/" << c.name << ": measured " << c.measured
        << " vs paper " << c.expected << " (band +-" << c.tolerance << ")";
    EXPECT_TRUE(std::isfinite(c.measured)) << c.name;
  }
  // The render used by charisma_analyze agrees with the pass verdicts.
  EXPECT_NE(render_fidelity(checks).find("0 outside their band"),
            std::string::npos);
}

TEST(PaperFidelity, FigureSetCoversEveryFigure) {
  const FigureSet& figs = fixture().summary.figures;
  for (const char* name :
       {"fig4_reads", "fig4_read_bytes", "fig4_writes", "fig4_write_bytes",
        "fig5_read_only", "fig5_write_only", "fig5_read_write",
        "fig6_read_only", "fig6_write_only", "fig7_read_bytes",
        "fig7_read_blocks", "fig7_write_bytes", "table1_files_per_job",
        "table2_interval_sizes", "table3_request_sizes", "fig8_1buf",
        "fig8_50buf", "fig9_lru", "fig9_fifo"}) {
    const FigureCurve* c = figs.find(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->xs.size(), c->ys.size()) << name;
    EXPECT_FALSE(c->xs.empty()) << name;
  }
  EXPECT_EQ(figs.curves.size(), 19u);
}

TEST(PaperFidelity, CdfCurvesAreMonotoneAndBounded) {
  for (const FigureCurve& c : fixture().summary.figures.curves) {
    if (c.name.rfind("fig9", 0) == 0) continue;  // hit-rate vs buffers, not a CDF
    SCOPED_TRACE(c.name);
    double prev = 0.0;
    bool monotone = c.name.rfind("table", 0) != 0;  // tables are PDFs
    for (double y : c.ys) {
      EXPECT_GE(y, 0.0);
      EXPECT_LE(y, 1.0);
      if (monotone) {
        EXPECT_GE(y, prev);
        prev = y;
      }
    }
    if (monotone) {
      EXPECT_DOUBLE_EQ(c.ys.back(), 1.0);
    }
  }
}

TEST(PaperFidelity, Figure4CurveMatchesPaperAnchors) {
  const Fixture& f = fixture();
  const FigureCurve* reads = f.summary.figures.find("fig4_reads");
  const FigureCurve* writes = f.summary.figures.find("fig4_writes");
  ASSERT_NE(reads, nullptr);
  ASSERT_NE(writes, nullptr);
  // Value at the first grid position >= the 4000-byte "small request"
  // threshold; the CDF there can only exceed the exact-threshold fraction,
  // so the band gains a little slack over the scalar check's.
  const auto at_threshold = [](const FigureCurve& c) {
    for (std::size_t i = 0; i < c.xs.size(); ++i) {
      if (c.xs[i] >= static_cast<double>(paper::kSmallRequestThreshold)) {
        return c.ys[i];
      }
    }
    return c.ys.back();
  };
  EXPECT_NEAR(at_threshold(*reads), paper::kSmallReadFraction, 0.12);
  EXPECT_NEAR(at_threshold(*writes), paper::kSmallWriteFraction, 0.14);
}

TEST(PaperFidelity, SequentialityCurvesMatchPaperAnchors) {
  const FigureSet& figs = fixture().summary.figures;
  // "Fully consecutive" is the mass at exactly 1.0: one minus the curve
  // just below the end of the grid.
  const auto fully = [&](const char* name) {
    const FigureCurve* c = figs.find(name);
    EXPECT_NE(c, nullptr) << name;
    return 1.0 - c->ys[c->ys.size() - 2];  // grid position 0.95
  };
  EXPECT_NEAR(fully("fig6_write_only"), paper::kWriteOnlyFullyConsecutive,
              0.20);
  EXPECT_NEAR(fully("fig6_read_only"), paper::kReadOnlyFullyConsecutive,
              0.20);
}

TEST(PaperFidelity, CacheCurvesAgreeWithSimulatorScalars) {
  const Fixture& f = fixture();
  const FigureCurve* fig8 = f.summary.figures.find("fig8_1buf");
  ASSERT_NE(fig8, nullptr);
  // Grid position 0 holds P(rate <= 0) and position 0.75 holds
  // P(rate <= 0.75); both must agree with the simulator's own fractions
  // and land inside the Figure 8 bands around the paper's values.
  EXPECT_NEAR(fig8->ys.front(), f.compute.fraction_jobs_zero, 1e-12);
  EXPECT_NEAR(1.0 - fig8->ys[15], f.compute.fraction_jobs_above_75, 1e-12);
  EXPECT_NEAR(fig8->ys.front(), paper::kJobsAtZeroHitRate, 0.25);
  EXPECT_NEAR(1.0 - fig8->ys[15], paper::kJobsAboveHitRate75, 0.25);
}

TEST(PaperFidelity, TableCurvesMatchPaperRows) {
  const FigureSet& figs = fixture().summary.figures;
  const FigureCurve* t2 = figs.find("table2_interval_sizes");
  const FigureCurve* t3 = figs.find("table3_request_sizes");
  ASSERT_NE(t2, nullptr);
  ASSERT_NE(t3, nullptr);
  ASSERT_EQ(t2->ys.size(), paper::kTable2Percent.size());
  ASSERT_EQ(t3->ys.size(), paper::kTable3Percent.size());
  for (std::size_t b = 0; b < t2->ys.size(); ++b) {
    EXPECT_NEAR(t2->ys[b], paper::kTable2Percent[b] / 100.0, 0.15)
        << "table2 bucket " << b;
    EXPECT_NEAR(t3->ys[b], paper::kTable3Percent[b] / 100.0, 0.20)
        << "table3 bucket " << b;
  }
}

TEST(PaperFidelity, HeadlineStatsMatchSummary) {
  // The StudySummary fields the campaign aggregates are the same
  // measurements the fidelity suite checks — no second bookkeeping path.
  const Fixture& f = fixture();
  const auto checks =
      check_paper_fidelity(f.store, f.request_sizes, f.block_size);
  const auto measured = [&](const char* name) {
    for (const auto& c : checks) {
      if (c.name == name) return c.measured;
    }
    ADD_FAILURE() << "missing check " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(measured("idle_fraction"), f.summary.idle_fraction);
  EXPECT_DOUBLE_EQ(measured("multiprogrammed_fraction"),
                   f.summary.multiprogrammed_fraction);
  EXPECT_DOUBLE_EQ(measured("single_node_job_fraction"),
                   f.summary.single_node_job_fraction);
  EXPECT_DOUBLE_EQ(measured("small_read_fraction"),
                   f.summary.small_read_fraction);
  EXPECT_DOUBLE_EQ(measured("small_write_fraction"),
                   f.summary.small_write_fraction);
  EXPECT_DOUBLE_EQ(measured("temporary_fraction"),
                   f.summary.temporary_fraction);
  EXPECT_DOUBLE_EQ(measured("mode0_fraction"), f.summary.mode0_fraction);
}

}  // namespace
}  // namespace charisma::analysis
