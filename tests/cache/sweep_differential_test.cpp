// Sweep-mode differential suite: for a real (scale-0.05) generated trace,
// every fig 8 / fig 9 / §4.8 configuration — plus the IP-aware ablation —
// must produce bit-identical results between SweepMode::kPerConfig (the
// reference: one full replay per point) and SweepMode::kGrouped (stack
// simulation for LRU, stamps for FIFO, one replay per IP-aware point; the
// stack and stamp passes read the replay log's reuse bits), for the serial
// runner and for pools of 1 / 2 / 8 threads.  "Bit-identical" means every
// counter and every derived double, including the full per-job hit-rate
// CDF.
//
// This is the contract that lets the grouped path be the default everywhere
// (figures, benches, the perf harness) without a fidelity re-audit: same
// bits in, same bits out, only faster.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../trace/study_records.hpp"
#include "cache/simulators.hpp"
#include "cache/stack_sim.hpp"
#include "replay_testing.hpp"
#include "util/thread_pool.hpp"

namespace charisma::cache {
namespace {

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 42;

/// One real study shared by every test in the binary; the reference results
/// are computed once (serial, per-config) and reused by each comparison.
/// The first runner replays the study's own op spill; every later runner
/// respills the collected records, since a runner consumes its spill.
struct Fixture {
  trace::fixtures::CollectedStudy study;
  std::set<SessionKey> read_only;
  std::vector<ComputeCacheConfig> compute_configs;
  std::vector<IoNodeSimConfig> io_configs;
  std::vector<ComputeCacheResult> compute_reference;
  std::vector<IoNodeSimResult> io_reference;

  Fixture() : study(trace::fixtures::collect_study_at_scale(kScale, kSeed)) {
    read_only = study.out.sessions.read_only_sessions();
    compute_configs = make_compute_configs();
    io_configs = make_io_configs();
    const SweepRunner serial(std::move(study.out.replay_ops), read_only);
    compute_reference =
        serial.run_compute(compute_configs, SweepMode::kPerConfig);
    io_reference = serial.run_io(io_configs, SweepMode::kPerConfig);
  }

  /// The fig 8 grid the perf harness sweeps, plus a duplicate point (the
  /// grouped path must fan one simulated point out to both slots).
  static std::vector<ComputeCacheConfig> make_compute_configs() {
    std::vector<ComputeCacheConfig> configs;
    for (const std::size_t buffers : {1u, 10u, 50u, 10u}) {
      ComputeCacheConfig cfg;
      cfg.buffers_per_node = buffers;
      configs.push_back(cfg);
    }
    return configs;
  }

  /// Every shape the fig 9 / §4.8 benches and the perf harness sweep:
  /// the buffer grid under LRU, FIFO and IP-aware, the io-node spread,
  /// the §4.8 front-cache pair, and capacity edge cases (total_buffers
  /// below io_nodes -> zero per-node buffers; duplicated totals).
  static std::vector<IoNodeSimConfig> make_io_configs() {
    std::vector<IoNodeSimConfig> configs;
    for (const std::size_t buffers : {100u, 500u, 2000u, 8000u, 500u}) {
      for (const Policy policy :
           {Policy::kLru, Policy::kFifo, Policy::kInterprocessAware}) {
        IoNodeSimConfig cfg;
        cfg.total_buffers = buffers;
        cfg.policy = policy;
        configs.push_back(cfg);
      }
    }
    for (const int io : {1, 2, 5, 10, 20}) {
      IoNodeSimConfig cfg;
      cfg.total_buffers = 4000;
      cfg.io_nodes = io;
      configs.push_back(cfg);
    }
    for (const std::size_t front : {0u, 1u}) {
      IoNodeSimConfig cfg;  // §4.8 combined-cache pair
      cfg.total_buffers = 500;
      cfg.compute_buffers_per_node = front;
      configs.push_back(cfg);
    }
    IoNodeSimConfig tiny;  // rounds to zero buffers per node
    tiny.total_buffers = 3;
    configs.push_back(tiny);
    return configs;
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void expect_identical(const util::Cdf& a, const util::Cdf& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << "point " << i;
    EXPECT_EQ(a.points()[i].cumulative_fraction,
              b.points()[i].cumulative_fraction)
        << "point " << i;
  }
}

void expect_identical(const ComputeCacheResult& a, const ComputeCacheResult& b,
                      std::size_t config) {
  SCOPED_TRACE("compute config " + std::to_string(config));
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.job_hit_rates, b.job_hit_rates);
  EXPECT_EQ(a.fraction_jobs_zero, b.fraction_jobs_zero);
  EXPECT_EQ(a.fraction_jobs_above_75, b.fraction_jobs_above_75);
  EXPECT_EQ(a.overall_hit_rate(), b.overall_hit_rate());
  expect_identical(a.hit_rate_cdf, b.hit_rate_cdf);
  EXPECT_EQ(a.describe(), b.describe());
}

void expect_identical(const IoNodeSimResult& a, const IoNodeSimResult& b,
                      std::size_t config) {
  SCOPED_TRACE("io config " + std::to_string(config));
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.request_hits, b.request_hits);
  EXPECT_EQ(a.block_accesses, b.block_accesses);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.filtered_by_compute, b.filtered_by_compute);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.block_hit_rate, b.block_hit_rate);
  EXPECT_EQ(a.describe(), b.describe());
}

void expect_matches_reference(const SweepRunner& runner) {
  const Fixture& f = fixture();
  const auto compute = runner.run_compute(f.compute_configs,
                                          SweepMode::kGrouped);
  ASSERT_EQ(compute.size(), f.compute_configs.size());
  for (std::size_t i = 0; i < compute.size(); ++i) {
    expect_identical(f.compute_reference[i], compute[i], i);
  }
  const auto io = runner.run_io(f.io_configs, SweepMode::kGrouped);
  ASSERT_EQ(io.size(), f.io_configs.size());
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_identical(f.io_reference[i], io[i], i);
  }
}

TEST(SweepDifferential, GroupedMatchesPerConfigSerially) {
  const Fixture& f = fixture();
  const SweepRunner serial(fixtures::spill_of(f.study.records),
                           f.read_only);
  expect_matches_reference(serial);
}

TEST(SweepDifferential, GroupedMatchesPerConfigAcrossThreadCounts) {
  const Fixture& f = fixture();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::ThreadPool pool(threads);
    const SweepRunner runner(fixtures::spill_of(f.study.records),
                             f.read_only, pool);
    expect_matches_reference(runner);
  }
}

TEST(SweepDifferential, PerConfigModeIsAlsoThreadCountInvariant) {
  // The reference mode itself must not depend on the pool either, or the
  // differential baseline would be ill-defined.
  const Fixture& f = fixture();
  util::ThreadPool pool(8);
  const SweepRunner runner(fixtures::spill_of(f.study.records),
                           f.read_only, pool);
  const auto compute = runner.run_compute(f.compute_configs,
                                          SweepMode::kPerConfig);
  for (std::size_t i = 0; i < compute.size(); ++i) {
    expect_identical(f.compute_reference[i], compute[i], i);
  }
  const auto io = runner.run_io(f.io_configs, SweepMode::kPerConfig);
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_identical(f.io_reference[i], io[i], i);
  }
}

TEST(SweepDifferential, PlansCoverEveryConfigWithFewerPasses) {
  const Fixture& f = fixture();
  const SweepPlan compute_plan = plan_compute_sweep(f.compute_configs);
  EXPECT_EQ(compute_plan.configs(), f.compute_configs.size());
  EXPECT_EQ(compute_plan.passes(), 1u);       // one LRU group -> one pass
  EXPECT_EQ(compute_plan.simulated_points(), 3u);  // {1, 10, 50}, 10 deduped

  const SweepPlan io_plan = plan_io_sweep(f.io_configs);
  EXPECT_EQ(io_plan.configs(), f.io_configs.size());
  EXPECT_EQ(io_plan.passes(), 11u);  // of 23 configs
  std::size_t stack_passes = 0;
  std::size_t stamp_passes = 0;
  std::size_t replay_passes = 0;
  std::size_t single_point_stacks = 0;
  for (const SweepGroup& g : io_plan.groups) {
    if (g.kind == SweepGroup::Kind::kStack) ++stack_passes;
    if (g.kind == SweepGroup::Kind::kStamp) ++stamp_passes;
    if (g.kind == SweepGroup::Kind::kReplay) {
      ++replay_passes;
      EXPECT_EQ(g.policy, Policy::kInterprocessAware);
      EXPECT_EQ(g.simulated, 1u);
    }
    if (g.kind == SweepGroup::Kind::kStack && g.configs == 1) {
      ++single_point_stacks;
    }
    EXPECT_LE(g.simulated, g.configs);
  }
  // The main grid: one LRU stack pass (its zero-buffer point included), one
  // FIFO stamp pass, and one replay per distinct IP-aware capacity (4 of
  // 5 configs).  The five single-point LRU shapes (the io-node spread
  // minus io=10, plus the front=1 point) each run a one-segment stack.
  EXPECT_EQ(stack_passes, 6u);
  EXPECT_EQ(single_point_stacks, 5u);
  EXPECT_EQ(stamp_passes, 1u);
  EXPECT_EQ(replay_passes, 4u);
  EXPECT_FALSE(io_plan.describe().empty());
}

// One more FIFO capacity than a stamp pass covers: the group falls back to
// one replay per capacity, whose results must still equal the per-config
// reference.
TEST(SweepDifferential, FifoGroupPastTheStampLimitReplaysEachPoint) {
  const Fixture& f = fixture();
  std::vector<IoNodeSimConfig> configs;
  for (std::size_t per_node = 1; per_node <= detail::kMaxStampCapacities + 1;
       ++per_node) {
    IoNodeSimConfig cfg;
    cfg.policy = Policy::kFifo;
    cfg.total_buffers = per_node * 20 * static_cast<std::size_t>(cfg.io_nodes);
    configs.push_back(cfg);
  }
  const SweepPlan plan = plan_io_sweep(configs);
  ASSERT_EQ(plan.passes(), detail::kMaxStampCapacities + 1);
  for (const SweepGroup& g : plan.groups) {
    EXPECT_EQ(g.kind, SweepGroup::Kind::kReplay);
    EXPECT_EQ(g.configs, 1u);
  }

  const SweepRunner runner(fixtures::spill_of(f.study.records), f.read_only);
  const auto reference = runner.run_io(configs, SweepMode::kPerConfig);
  const auto grouped = runner.run_io(configs, SweepMode::kGrouped);
  ASSERT_EQ(grouped.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(reference[i], grouped[i], i);
  }
}

/// perf_study's sweep grid: the three fig8 compute points, then the fig9
/// LRU/FIFO buffer grid, the I/O-node spread at 4000 buffers and the §4.8
/// front-cache pair (3 + 25 configs).
std::vector<ComputeCacheConfig> perf_compute_grid() {
  std::vector<ComputeCacheConfig> configs(3);
  configs[0].buffers_per_node = 1;
  configs[1].buffers_per_node = 10;
  configs[2].buffers_per_node = 50;
  return configs;
}

std::vector<IoNodeSimConfig> perf_io_grid() {
  std::vector<IoNodeSimConfig> configs;
  for (const std::size_t buffers :
       {100u, 250u, 500u, 1000u, 2000u, 4000u, 8000u, 16000u, 25000u}) {
    for (const Policy policy : {Policy::kLru, Policy::kFifo}) {
      IoNodeSimConfig cfg;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      configs.push_back(cfg);
    }
  }
  for (const int io : {1, 2, 5, 10, 20}) {
    IoNodeSimConfig cfg;
    cfg.total_buffers = 4000;
    cfg.io_nodes = io;
    configs.push_back(cfg);
  }
  for (const std::size_t front : {0u, 1u}) {
    IoNodeSimConfig cfg;
    cfg.total_buffers = 500;
    cfg.compute_buffers_per_node = front;
    configs.push_back(cfg);
  }
  return configs;
}

// The laws every grouped sweep keeps, per config and across configs, on
// perf_study's grid over the scale-0.05 seed-42 study.  A break names the
// config and the law, where the differential above only says two modes
// disagree.
TEST(SweepConservation, PerfStudyGridKeepsEveryLaw) {
  const Fixture& f = fixture();
  const SweepRunner runner(fixtures::spill_of(f.study.records), f.read_only);
  const std::vector<ComputeCacheConfig> compute_configs = perf_compute_grid();
  const std::vector<IoNodeSimConfig> io_configs = perf_io_grid();
  const std::vector<ComputeCacheResult> compute =
      runner.run_compute(compute_configs);
  const std::vector<IoNodeSimResult> io = runner.run_io(io_configs);
  const std::uint64_t ops = runner.replay_ops();
  ASSERT_EQ(ops, 359'332u);
  ASSERT_EQ(io.size(), 25u);

  std::uint64_t front_free_blocks = 0;
  for (std::size_t i = 0; i < io.size(); ++i) {
    SCOPED_TRACE("io[" + std::to_string(i) + "]");
    const IoNodeSimResult& r = io[i];
    EXPECT_EQ(r.requests + r.filtered_by_compute, ops)
        << "every op reaches the I/O nodes or a front cache absorbs it";
    EXPECT_LE(r.request_hits, r.requests);
    EXPECT_LE(r.block_hits, r.block_accesses);
    if (io_configs[i].compute_buffers_per_node > 0) continue;
    EXPECT_EQ(r.filtered_by_compute, 0u);
    if (front_free_blocks == 0) front_free_blocks = r.block_accesses;
    EXPECT_EQ(r.block_accesses, front_free_blocks)
        << "without a front cache every config sees the same blocks";
  }
  // LRU inclusion: at a fixed topology, more buffers never lose a hit.
  for (std::size_t i = 0; i < io.size(); ++i) {
    for (std::size_t j = 0; j < io.size(); ++j) {
      const IoNodeSimConfig& a = io_configs[i];
      const IoNodeSimConfig& b = io_configs[j];
      if (a.policy != Policy::kLru || b.policy != Policy::kLru ||
          a.io_nodes != b.io_nodes ||
          a.compute_buffers_per_node != b.compute_buffers_per_node ||
          a.total_buffers > b.total_buffers) {
        continue;
      }
      SCOPED_TRACE("io[" + std::to_string(i) + "] <= io[" +
                   std::to_string(j) + "]");
      EXPECT_LE(io[i].request_hits, io[j].request_hits);
      EXPECT_LE(io[i].block_hits, io[j].block_hits);
    }
  }

  for (std::size_t i = 0; i < compute.size(); ++i) {
    SCOPED_TRACE("compute[" + std::to_string(i) + "]");
    EXPECT_LE(compute[i].hits, compute[i].reads);
    EXPECT_EQ(compute[i].reads, compute[0].reads);
    EXPECT_LE(compute[i].reads, ops);
    if (i > 0) {
      EXPECT_LE(compute[i - 1].hits, compute[i].hits)
          << "compute-node LRU inclusion";
    }
  }

  // §4.8: the one-buffer front cache absorbs exactly the reads the fig8
  // one-buffer cache hits.
  const IoNodeSimResult& combined = io[24];
  ASSERT_EQ(io_configs[24].compute_buffers_per_node, 1u);
  ASSERT_EQ(compute_configs[0].buffers_per_node, 1u);
  EXPECT_EQ(combined.filtered_by_compute, compute[0].hits);
  EXPECT_EQ(combined.filtered_by_compute, 126'944u);
  EXPECT_EQ(combined.requests, 232'388u);
}

}  // namespace
}  // namespace charisma::cache
