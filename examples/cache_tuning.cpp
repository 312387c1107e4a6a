// Cache tuning: replay one trace through the trace-driven cache simulators
// at many design points and print the resulting design-space table — the
// workflow a file-system designer would use this library for.
//
//   cache_tuning [--scale=0.1] [--seed=42]
//
// A value that is not a number, or a --scale <= 0, prints usage and exits 2.
#include <cstdio>
#include <optional>
#include <utility>

#include "cache/simulators.hpp"
#include "core/stream_study.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace charisma;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, {"scale", "seed"});
  const std::optional<double> scale_flag = flags.try_get_double("scale", 0.1);
  const std::optional<std::int64_t> seed_flag = flags.try_get_int("seed", 42);
  if (!scale_flag || *scale_flag <= 0.0 || !seed_flag) {
    std::fprintf(stderr, "usage: cache_tuning [--scale=0.1] [--seed=42]\n");
    return 2;
  }
  const double scale = *scale_flag;
  const auto seed = static_cast<std::uint64_t>(*seed_flag);

  std::printf("generating trace at scale %.2f...\n", scale);
  core::StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  core::StreamedStudyOutput study = core::run_streamed_study(config);
  util::ThreadPool pool;
  const cache::SweepRunner runner(std::move(study.replay_ops),
                                  study.sessions.read_only_sessions(), pool);

  // Sweep the I/O-node cache design space: every design point in one
  // grouped sweep over the pool, results in design-point order.
  const std::vector<std::size_t> sizes = {250, 1000, 4000, 16000};
  const std::vector<cache::Policy> policies = {
      cache::Policy::kLru, cache::Policy::kFifo,
      cache::Policy::kInterprocessAware};
  std::vector<cache::IoNodeSimConfig> points(sizes.size() * policies.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].total_buffers = sizes[i % sizes.size()];
    points[i].policy = policies[i / sizes.size()];
    points[i].io_nodes = 10;
  }
  const std::vector<cache::IoNodeSimResult> io = runner.run_io(points);

  util::Table t({"policy", "250 buf", "1000 buf", "4000 buf", "16000 buf"});
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::vector<std::string> row{to_string(policies[p])};
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      row.push_back(util::fmt(io[p * sizes.size() + s].hit_rate * 100.0) +
                    "%");
    }
    t.add_row(std::move(row));
  }
  std::printf("\nI/O-node cache hit rate by design point:\n%s\n",
              t.render().c_str());

  // And the compute-node side: is one buffer really enough?
  util::Table c({"buffers per node", "jobs at 0%", "jobs > 75%",
                 "overall hit rate"});
  std::vector<cache::ComputeCacheConfig> per_node(3);
  per_node[0].buffers_per_node = 1;
  per_node[1].buffers_per_node = 4;
  per_node[2].buffers_per_node = 50;
  const std::vector<cache::ComputeCacheResult> compute =
      runner.run_compute(per_node);
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    const cache::ComputeCacheResult& r = compute[i];
    c.add_row({std::to_string(per_node[i].buffers_per_node),
               util::fmt(r.fraction_jobs_zero * 100.0) + "%",
               util::fmt(r.fraction_jobs_above_75 * 100.0) + "%",
               util::fmt(r.overall_hit_rate() * 100.0) + "%"});
  }
  std::printf("compute-node cache (read-only files, LRU):\n%s\n",
              c.render().c_str());
  std::printf(
      "reading: if the per-node rows barely differ, the paper's \"a single "
      "one-block buffer per compute node may be useful\" holds here too.\n");
  return 0;
}
