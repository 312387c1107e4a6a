// Ablation E: collective / disk-directed I/O (paper §5's closing pointer).
// Replays each (job, file) block stream through the disk model in request
// order and in disk order, measuring the positioning cost that collective
// requests could eliminate.
#include "common.hpp"

#include "core/collective.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  auto& ctx = Context::instance();
  const cache::ReplayLog& ops = ctx.sweeps().log();
  core::CollectiveConfig cfg;
  cfg.io_nodes = ctx.study().header.io_nodes;
  const auto stats = core::analyze_disk_directed(ops, cfg);
  std::printf("%s\n", stats.render().c_str());

  Comparison cmp("Ablation E: disk-directed I/O (S5)");
  cmp.row("claim", "collective I/O can beat even strided requests",
          "disk-directed saves " +
              util::fmt(stats.time_reduction() * 100.0) +
              "% of per-session disk time");
  cmp.row("mechanism", "service blocks in disk order",
          std::to_string(stats.discontiguities_arrival) + " -> " +
              std::to_string(stats.discontiguities_directed) +
              " head repositionings");
  cmp.print();
}

void BM_DiskDirectedAnalysis(benchmark::State& state) {
  const cache::ReplayLog& ops = Context::instance().sweeps().log();
  core::CollectiveConfig cfg;
  cfg.io_nodes = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::analyze_disk_directed(ops, cfg));
  }
}
BENCHMARK(BM_DiskDirectedAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Ablation E (disk-directed I/O)",
                    charisma::bench::reproduce)
