#include "cache/simulators.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "replay_testing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charisma::cache {
namespace {

using fixtures::log_of;
using fixtures::spill_of;
using trace::EventKind;

trace::Record data(EventKind kind, cfs::JobId job, cfs::NodeId node,
                   cfs::FileId file, std::int64_t offset, std::int64_t bytes) {
  trace::Record r;
  r.kind = kind;
  r.job = job;
  r.node = node;
  r.file = file;
  r.offset = offset;
  r.bytes = bytes;
  return r;
}

// A mixed synthetic trace: several jobs, shared and private files, reads and
// writes, enough volume that the sweep actually chunks across threads.
std::vector<trace::Record> mixed_trace() {
  std::vector<trace::Record> t;
  util::Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const auto job = static_cast<cfs::JobId>(1 + rng.uniform(4));
    const auto node = static_cast<cfs::NodeId>(rng.uniform(8));
    const auto file = static_cast<cfs::FileId>(1 + rng.uniform(6));
    const auto block = static_cast<std::int64_t>(rng.uniform(512));
    const bool write = rng.chance(0.15);
    t.push_back(data(write ? EventKind::kWrite : EventKind::kRead, job, node,
                     file, block * 4096,
                     static_cast<std::int64_t>(64 + rng.uniform(8192))));
  }
  return t;
}

std::set<SessionKey> read_only_for(const std::vector<trace::Record>&) {
  // Declare a fixed subset of (job, file) sessions read-only; the sweeps
  // only need *some* sessions eligible for compute-node caching.
  std::set<SessionKey> ro;
  for (cfs::JobId job = 1; job <= 4; ++job) {
    for (cfs::FileId file = 1; file <= 3; ++file) ro.emplace(job, file);
  }
  return ro;
}

std::vector<ComputeCacheConfig> compute_points() {
  std::vector<ComputeCacheConfig> configs(3);
  configs[0].buffers_per_node = 1;
  configs[1].buffers_per_node = 10;
  configs[2].buffers_per_node = 50;
  return configs;
}

std::vector<IoNodeSimConfig> io_points() {
  std::vector<IoNodeSimConfig> configs;
  for (const std::size_t buffers : {50u, 200u, 800u}) {
    for (const Policy policy : {Policy::kLru, Policy::kFifo}) {
      IoNodeSimConfig cfg;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      configs.push_back(cfg);
    }
  }
  IoNodeSimConfig combined;
  combined.total_buffers = 200;
  combined.compute_buffers_per_node = 1;
  configs.push_back(combined);
  IoNodeSimConfig ip_aware;  // ablation B: no inclusion property either
  ip_aware.total_buffers = 200;
  ip_aware.policy = Policy::kInterprocessAware;
  configs.push_back(ip_aware);
  return configs;
}

void expect_same(const ComputeCacheResult& a, const ComputeCacheResult& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.job_hit_rates, b.job_hit_rates);
  EXPECT_EQ(a.fraction_jobs_zero, b.fraction_jobs_zero);
  EXPECT_EQ(a.fraction_jobs_above_75, b.fraction_jobs_above_75);
}

void expect_same(const IoNodeSimResult& a, const IoNodeSimResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.request_hits, b.request_hits);
  EXPECT_EQ(a.block_accesses, b.block_accesses);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.filtered_by_compute, b.filtered_by_compute);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.block_hit_rate, b.block_hit_rate);
}

TEST(SweepRunner, ResultsAreInvariantUnderThreadCount) {
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  const auto cc = compute_points();
  const auto io = io_points();

  util::ThreadPool one(1);
  const SweepRunner baseline(spill_of(trace), ro, one);
  const auto compute_1 = baseline.run_compute(cc);
  const auto io_1 = baseline.run_io(io);
  ASSERT_EQ(compute_1.size(), cc.size());
  ASSERT_EQ(io_1.size(), io.size());

  // Budget 0 puts every op chunk on disk, so the pool's threads read one
  // disk-tier spill concurrently, each with pread on its one descriptor.
  for (const std::int64_t budget : {fixtures::kResidentBudget,
                                    std::int64_t{0}}) {
    for (const std::size_t threads : {2u, 8u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, budget "
                                      << budget);
      util::ThreadPool pool(threads);
      const SweepRunner runner(spill_of(trace, budget), ro, pool);
      const auto compute_n = runner.run_compute(cc);
      const auto io_n = runner.run_io(io);
      ASSERT_EQ(compute_n.size(), cc.size());
      ASSERT_EQ(io_n.size(), io.size());
      for (std::size_t i = 0; i < cc.size(); ++i) {
        expect_same(compute_1[i], compute_n[i]);
      }
      for (std::size_t i = 0; i < io.size(); ++i) {
        expect_same(io_1[i], io_n[i]);
      }
      if (budget == 0) {
        EXPECT_GT(runner.spill_bytes_read(), 0);
      }
    }
  }
}

TEST(SweepRunner, AgreesWithTheDirectSimulators) {
  // The pooled grouped sweep must compute exactly what one per-config
  // simulator run over the same ops computes.
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  util::ThreadPool pool(4);
  const SweepRunner runner(spill_of(trace), ro, pool);
  const ReplayLog log = log_of(trace, ro);

  const auto cc = compute_points();
  const auto compute = runner.run_compute(cc);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    expect_same(compute[i], simulate_compute_cache(log, cc[i]));
  }
  const auto io = io_points();
  const auto io_results = runner.run_io(io);
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_same(io_results[i], simulate_io_cache(log, io[i]));
  }
}

TEST(SweepRunner, GroupedModeMatchesPerConfigMode) {
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  const SweepRunner runner(spill_of(trace), ro);  // serial: no pool needed

  const auto cc = compute_points();
  const auto compute_ref = runner.run_compute(cc, SweepMode::kPerConfig);
  const auto compute_grp = runner.run_compute(cc, SweepMode::kGrouped);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    expect_same(compute_ref[i], compute_grp[i]);
  }
  const auto io = io_points();
  const auto io_ref = runner.run_io(io, SweepMode::kPerConfig);
  const auto io_grp = runner.run_io(io, SweepMode::kGrouped);
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_same(io_ref[i], io_grp[i]);
  }
}

TEST(SweepRunner, PlansDescribeTheGroupedPasses) {
  const SweepPlan compute_plan = plan_compute_sweep(compute_points());
  EXPECT_EQ(compute_plan.passes(), 1u);
  EXPECT_EQ(compute_plan.configs(), 3u);
  EXPECT_EQ(compute_plan.simulated_points(), 3u);
  ASSERT_EQ(compute_plan.groups.size(), 1u);
  EXPECT_EQ(compute_plan.groups[0].kind, SweepGroup::Kind::kStack);

  // io_points(): 3 buffer counts x {LRU, FIFO} + a §4.8 front point + an
  // IP-aware point -> one LRU stack pass, one FIFO stamp pass, a
  // one-segment stack pass for the single-point LRU front shape, and a
  // replay pass for the single IP-aware point.
  const SweepPlan io_plan = plan_io_sweep(io_points());
  EXPECT_EQ(io_plan.configs(), 8u);
  EXPECT_EQ(io_plan.passes(), 4u);
  std::size_t stack = 0, stamp = 0, replay = 0;
  for (const SweepGroup& g : io_plan.groups) {
    switch (g.kind) {
      case SweepGroup::Kind::kStack: ++stack; break;
      case SweepGroup::Kind::kStamp: ++stamp; break;
      case SweepGroup::Kind::kReplay:
        ++replay;
        EXPECT_EQ(g.configs, 1u);
        EXPECT_EQ(g.simulated, 1u);
        break;
    }
  }
  EXPECT_EQ(stack, 2u);
  EXPECT_EQ(stamp, 1u);
  EXPECT_EQ(replay, 1u);
  EXPECT_EQ(io_plan.describe(),
            "8 configs in 4 passes: LRU/stack(3->3) FIFO/stamp(3->3) "
            "LRU/stack(1->1) IP-aware/replay(1->1)");

  // An IP-aware group of three capacities (one of them twice) replays each
  // distinct capacity in a pass of its own, in ascending order.
  std::vector<IoNodeSimConfig> ip_aware;
  for (const std::size_t buffers : {800u, 50u, 200u, 50u}) {
    IoNodeSimConfig cfg;
    cfg.total_buffers = buffers;
    cfg.policy = Policy::kInterprocessAware;
    ip_aware.push_back(cfg);
  }
  EXPECT_EQ(plan_io_sweep(ip_aware).describe(),
            "4 configs in 3 passes: IP-aware/replay(2->1) "
            "IP-aware/replay(1->1) IP-aware/replay(1->1)");
}

TEST(SweepRunner, FigureSweepPlanRunsOnePassPerTopology) {
  // The 28-point figure sweep: fig8's three buffer counts; the fig9 LRU and
  // FIFO grids at 10 I/O nodes; the I/O-node spread at 4000 buffers; the
  // §4.8 front-cache pair.  Every pass is one pool task, so a pass that
  // spans several topologies serializes them; each topology (policy, I/O
  // nodes, front setting) must get a pass of its own.
  const SweepPlan compute_plan = plan_compute_sweep(compute_points());
  std::vector<IoNodeSimConfig> io;
  const auto add = [&io](std::size_t buffers, Policy policy, int io_nodes,
                         std::size_t front) {
    IoNodeSimConfig cfg;
    cfg.total_buffers = buffers;
    cfg.policy = policy;
    cfg.io_nodes = io_nodes;
    cfg.compute_buffers_per_node = front;
    io.push_back(cfg);
  };
  for (const Policy policy : {Policy::kLru, Policy::kFifo}) {
    for (const std::size_t buffers :
         {100u, 250u, 500u, 1000u, 2000u, 4000u, 8000u, 16000u, 25000u}) {
      add(buffers, policy, 10, 0);
    }
  }
  for (const int io_nodes : {1, 2, 5, 10, 20}) {
    add(4000, Policy::kLru, io_nodes, 0);
  }
  for (const std::size_t front : {0u, 1u}) add(500, Policy::kLru, 10, front);
  const SweepPlan io_plan = plan_io_sweep(io);
  EXPECT_EQ(compute_plan.configs() + io_plan.configs(), 28u);

  // Seven topologies: LRU at 10 I/O nodes (the grid, the spread's 10 and
  // the front-0 point: 11 configs, 9 distinct per-node counts), FIFO at 10,
  // LRU at 1 / 2 / 5 / 20, and the front-1 point.  The five single-point
  // LRU shapes run on one-segment stacks.
  EXPECT_EQ(io_plan.describe(),
            "25 configs in 7 passes: LRU/stack(11->9) FIFO/stamp(9->9) "
            "LRU/stack(1->1) LRU/stack(1->1) LRU/stack(1->1) "
            "LRU/stack(1->1) LRU/stack(1->1)");
  EXPECT_EQ(compute_plan.passes() + io_plan.passes(), 8u);
}

TEST(SweepRunner, SerialRunnerMatchesPooledRunner) {
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  util::ThreadPool pool(4);
  const SweepRunner pooled(spill_of(trace), ro, pool);
  const SweepRunner serial(spill_of(trace), ro);
  EXPECT_EQ(serial.replay_ops(), pooled.replay_ops());

  const auto cc = compute_points();
  const auto io = io_points();
  const auto compute_s = serial.run_compute(cc);
  const auto compute_p = pooled.run_compute(cc);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    expect_same(compute_s[i], compute_p[i]);
  }
  const auto io_s = serial.run_io(io);
  const auto io_p = pooled.run_io(io);
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_same(io_s[i], io_p[i]);
  }
}

TEST(SweepRunner, PassesExecutedLedgerMatchesThePlan) {
  // The grouped-mode speedup claim is "fewer trace passes for the same
  // results"; passes_executed() is the ledger that makes it checkable.
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  const auto cc = compute_points();
  const auto io = io_points();

  const SweepRunner grouped(spill_of(trace), ro);
  EXPECT_EQ(grouped.passes_executed(), 0u);
  (void)grouped.run_compute(cc, SweepMode::kGrouped);
  EXPECT_EQ(grouped.passes_executed(), plan_compute_sweep(cc).passes());
  (void)grouped.run_io(io, SweepMode::kGrouped);
  EXPECT_EQ(grouped.passes_executed(),
            plan_compute_sweep(cc).passes() + plan_io_sweep(io).passes());

  // Per-config mode replays once per config — strictly more passes here.
  const SweepRunner per_config(spill_of(trace), ro);
  (void)per_config.run_compute(cc, SweepMode::kPerConfig);
  (void)per_config.run_io(io, SweepMode::kPerConfig);
  EXPECT_EQ(per_config.passes_executed(), cc.size() + io.size());
  EXPECT_GT(per_config.passes_executed(), grouped.passes_executed());

  // The ledger is schedule-independent: a pooled runner counts the same.
  util::ThreadPool pool(4);
  const SweepRunner pooled(spill_of(trace), ro, pool);
  (void)pooled.run_compute(cc, SweepMode::kGrouped);
  (void)pooled.run_io(io, SweepMode::kGrouped);
  EXPECT_EQ(pooled.passes_executed(), grouped.passes_executed());
}

TEST(SweepRunner, PreparesOnlyDataRequests) {
  std::vector<trace::Record> t;
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  t.push_back(data(EventKind::kWrite, 1, 0, 1, 0, 100));
  t.push_back(data(EventKind::kRead, 1, 0, 1, 0, 0));  // empty: dropped
  t.push_back(data(EventKind::kOpen, 1, 0, 1, 0, 0));
  util::ThreadPool pool(1);
  const SweepRunner runner(spill_of(t), {}, pool);
  EXPECT_EQ(runner.replay_ops(), 2u);
}

TEST(SweepRunner, EmptyConfigListsYieldEmptyResults) {
  util::ThreadPool pool(1);
  const SweepRunner runner(ReplayOpSpill(), {}, pool);
  EXPECT_TRUE(runner.run_compute({}).empty());
  EXPECT_TRUE(runner.run_io({}).empty());
}

}  // namespace
}  // namespace charisma::cache
