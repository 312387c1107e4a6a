// End-to-end perf harness: one timed pass over the pipeline's three hot
// stages (study -> session build -> cache-parameter sweep), emitted as a
// self-contained JSON object for tools/record_bench.sh to collect into
// BENCH_study.json.
//
// This is deliberately NOT a google-benchmark binary: the recorded numbers
// are whole-stage wall times of a single representative pass, which is what
// the committed baseline compares across commits.
//
// Flags:
//   --scale=0.2            workload scale (same meaning as the fig* benches)
//   --seed=42              workload seed
//   --threads=0            sweep/session worker threads (0 = hardware)
//   --sweep-mode=grouped   cache sweep execution: grouped | per-config
//   --spill-budget-mb=384  spill memory-tier budget (0 = all-disk)
//   --spill-dir=<dir>      spill directory ($TMPDIR default)
//   --workload=synthetic   workload source: synthetic | replay:<chwl path> |
//                          checkpoint (see workload/source.hpp)
//   --chkpoint-size/bw/runtime/mtti/nodes/chunk
//                          checkpoint-source knobs (workload/checkpoint.hpp)
//   --out=<path>           also write the JSON there (stdout always)
//   --check-digest=0x...   exit non-zero unless the trace digest matches
//
// Per-point sweep summaries go to stderr in a mode-independent format, so
// CI can diff the two sweep modes' lines byte-for-byte.  An unknown flag, a
// bad --sweep-mode name, a numeric value that is not entirely a number, a
// --scale <= 0, a negative --threads, a --spill-budget-mb outside
// [0, core::kMaxSpillBudgetMb], a --chkpoint-* value the checkpoint plan
// cannot schedule or a bad --workload spec prints usage and exits 2; an
// unreadable or malformed replay log, a trace whose times overrun the
// I/O-rate timeline, or an --out file that cannot be opened (checked before
// the study runs), prints one line and exits 1.
#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/iorate.hpp"
#include "analysis/session.hpp"
#include "cache/simulators.hpp"
#include "core/stream_study.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

namespace charisma {
namespace {

// The harness measures the host machine, so this is the one audited place
// in bench/ that reads the wall clock; simulation code never does.
using WallClock = std::chrono::steady_clock;  // NOLINT(charisma-wallclock)

[[nodiscard]] double ms_since(WallClock::time_point start) {
  return std::chrono::duration<double, std::milli>(WallClock::now() - start)
      .count();
}

[[nodiscard]] long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// The representative sweep: every point the fig8 / fig9 / sec48 benches
/// replay, as one workload for the SweepRunner.
[[nodiscard]] std::vector<cache::ComputeCacheConfig> compute_sweep() {
  std::vector<cache::ComputeCacheConfig> configs(3);
  configs[0].buffers_per_node = 1;
  configs[1].buffers_per_node = 10;
  configs[2].buffers_per_node = 50;
  return configs;
}

[[nodiscard]] std::vector<cache::IoNodeSimConfig> io_sweep() {
  std::vector<cache::IoNodeSimConfig> configs;
  for (const std::size_t buffers :
       {100u, 250u, 500u, 1000u, 2000u, 4000u, 8000u, 16000u, 25000u}) {
    for (const cache::Policy policy :
         {cache::Policy::kLru, cache::Policy::kFifo}) {
      cache::IoNodeSimConfig cfg;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      configs.push_back(cfg);
    }
  }
  for (const int io : {1, 2, 5, 10, 20}) {
    cache::IoNodeSimConfig cfg;
    cfg.total_buffers = 4000;
    cfg.io_nodes = io;
    configs.push_back(cfg);
  }
  for (const std::size_t front : {0u, 1u}) {
    cache::IoNodeSimConfig cfg;  // the §4.8 combined-cache pair
    cfg.total_buffers = 500;
    cfg.compute_buffers_per_node = front;
    configs.push_back(cfg);
  }
  return configs;
}

/// Mode-independent per-point summary lines (stderr), byte-diffable between
/// --sweep-mode=grouped and --sweep-mode=per-config runs.
void print_sweep_results(
    const std::vector<cache::ComputeCacheConfig>& compute_configs,
    const std::vector<cache::ComputeCacheResult>& compute_results,
    const std::vector<cache::IoNodeSimConfig>& io_configs,
    const std::vector<cache::IoNodeSimResult>& io_results) {
  for (std::size_t i = 0; i < compute_results.size(); ++i) {
    std::fprintf(stderr, "compute[%zu] buffers=%zu %s\n", i,
                 compute_configs[i].buffers_per_node,
                 compute_results[i].describe().c_str());
  }
  for (std::size_t i = 0; i < io_results.size(); ++i) {
    std::fprintf(stderr, "io[%zu] policy=%s io_nodes=%d buffers=%zu front=%zu %s\n",
                 i, to_string(io_configs[i].policy), io_configs[i].io_nodes,
                 io_configs[i].total_buffers,
                 io_configs[i].compute_buffers_per_node,
                 io_results[i].describe().c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_study [--scale=0.2] [--seed=42] [--threads=N>=0] "
               "[--sweep-mode=grouped|per-config] "
               "[--spill-budget-mb=N] [--spill-dir=DIR] "
               "[--workload=synthetic|replay:<path>|checkpoint] "
               "[--chkpoint-*=...] [--out=PATH] [--check-digest=0x...]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::vector<std::string> known{
      "scale", "seed",         "threads",         "sweep-mode", "workload",
      "out",   "check-digest", "spill-budget-mb", "spill-dir"};
  for (const auto& name : workload::checkpoint_flag_names()) {
    known.push_back(name);
  }
  util::Flags flags(argc, argv, known);
  if (flags.remaining_argc() > 1) return usage();
  core::StudyConfig config;
  const std::optional<double> scale_flag = flags.try_get_double("scale", 0.2);
  const std::optional<std::int64_t> seed_flag = flags.try_get_int("seed", 42);
  const std::optional<std::int64_t> threads_flag =
      flags.try_get_int("threads", 0);
  const std::optional<std::int64_t> spill_budget_mb =
      flags.try_get_int("spill-budget-mb", config.spill_budget_mb);
  const std::string sweep_mode_name = flags.get("sweep-mode", "grouped");
  if (!scale_flag || *scale_flag <= 0.0 || !seed_flag || !threads_flag ||
      *threads_flag < 0 || !spill_budget_mb || *spill_budget_mb < 0 ||
      *spill_budget_mb > core::kMaxSpillBudgetMb ||
      !workload::apply_checkpoint_flags(flags, &config.workload) ||
      (sweep_mode_name != "grouped" && sweep_mode_name != "per-config")) {
    return usage();
  }
  std::string spec_error;
  const std::optional<workload::SourceSpec> source =
      workload::try_parse_source_spec(flags.get("workload", "synthetic"),
                                      &spec_error);
  if (!source.has_value()) {
    std::fprintf(stderr, "perf_study: %s\n", spec_error.c_str());
    return usage();
  }
  const double scale = *scale_flag;
  const auto seed = static_cast<std::uint64_t>(*seed_flag);
  const auto threads = static_cast<std::size_t>(*threads_flag);
  const cache::SweepMode sweep_mode = sweep_mode_name == "grouped"
                                          ? cache::SweepMode::kGrouped
                                          : cache::SweepMode::kPerConfig;

  config.workload.scale = scale;
  config.workload.seed = seed;
  config.source = *source;
  config.spill_budget_mb = *spill_budget_mb;
  config.spill_dir = flags.get("spill-dir", "");

  // Opened before the study, so an unwritable path costs one line, not a
  // finished study.
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out_file(nullptr,
                                                           &std::fclose);
  if (flags.has("out")) {
    const std::string path = flags.get("out", "");
    out_file.reset(std::fopen(path.c_str(), "w"));
    if (out_file == nullptr) {
      std::fprintf(stderr, "perf_study: cannot open --out file %s: %s\n",
                   path.c_str(), std::strerror(errno));
      return 1;
    }
  }

  util::ThreadPool pool(threads);
  const auto total_start = WallClock::now();
  auto stage_start = WallClock::now();

  // The study stage covers the simulation AND the one postprocessing merge
  // that feeds every accumulator, so the sessions stage below is just the
  // (cheap) store hand-off.
  core::StreamedStudyOutput out = core::run_streamed_study(config);
  double study_ms = ms_since(stage_start);
  // The digest fold runs inside the study (it must, before the spill is
  // consumed); report it as its own stage.
  const double digest_ms = out.spill.digest_ms;
  study_ms -= digest_ms;
  core::SpillTelemetry& spill = out.spill;
  stage_start = WallClock::now();
  const analysis::SessionStore store = std::move(out.sessions);
  const std::set<cache::SessionKey> read_only = store.read_only_sessions();
  const double sessions_ms = ms_since(stage_start);
  cache::SweepRunner sweeps(std::move(out.replay_ops), read_only, pool);

  const auto compute_configs = compute_sweep();
  const auto io_configs = io_sweep();
  stage_start = WallClock::now();
  const auto compute_results = sweeps.run_compute(compute_configs, sweep_mode);
  const auto io_results = sweeps.run_io(io_configs, sweep_mode);
  const double sweep_ms = ms_since(stage_start);
  const double total_ms = ms_since(total_start);
  // The sweeps re-read any on-disk replay-op frames once per trace pass.
  spill.spill_bytes_read += sweeps.spill_bytes_read();

  const cache::SweepPlan compute_plan = cache::plan_compute_sweep(compute_configs);
  const cache::SweepPlan io_plan = cache::plan_io_sweep(io_configs);
  const std::size_t sweep_passes =
      sweep_mode == cache::SweepMode::kGrouped
          ? compute_plan.passes() + io_plan.passes()
          : compute_configs.size() + io_configs.size();
  std::fprintf(stderr, "sweep mode: %s\n", to_string(sweep_mode));
  std::fprintf(stderr, "compute plan: %s\n", compute_plan.describe().c_str());
  std::fprintf(stderr, "io plan: %s\n", io_plan.describe().c_str());
  std::fprintf(stderr,
               "spill: budget=%lldMiB write_ms=%.1f read_ms=%.1f "
               "sink_ms=%.1f digest_ms=%.1f stall_ms=%.1f written=%lld "
               "read=%lld trace_blocks=%llu/%llu ops_chunks=%llu/%llu "
               "(mem/disk)\n",
               static_cast<long long>(spill.spill_budget_mb),
               spill.spill_write_ms, spill.spill_read_ms, spill.sink_ms,
               digest_ms, spill.append_stall_ms,
               static_cast<long long>(spill.spill_bytes_written),
               static_cast<long long>(spill.spill_bytes_read),
               static_cast<unsigned long long>(spill.trace_blocks_in_memory),
               static_cast<unsigned long long>(spill.trace_blocks_on_disk),
               static_cast<unsigned long long>(spill.ops_chunks_in_memory),
               static_cast<unsigned long long>(spill.ops_chunks_on_disk));
  print_sweep_results(compute_configs, compute_results, io_configs,
                      io_results);

  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "0x%016llx",
                static_cast<unsigned long long>(out.trace_digest));

  const double events_per_sec =
      study_ms > 0.0
          ? static_cast<double>(out.events_dispatched) / (study_ms / 1000.0)
          : 0.0;

  std::string json;
  json += "{\n";
  json += "  \"scale\": " + std::to_string(scale) + ",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"threads\": " + std::to_string(pool.thread_count()) + ",\n";
  json += "  \"workload\": \"" + workload::to_string(config.source) + "\",\n";
  json += "  \"sweep_mode\": \"" + sweep_mode_name + "\",\n";
  json += "  \"sweep_passes\": " + std::to_string(sweep_passes) + ",\n";
  json += "  \"stages_ms\": {\n";
  json += "    \"study\": " + std::to_string(study_ms) + ",\n";
  json += "    \"digest\": " + std::to_string(digest_ms) + ",\n";
  json += "    \"sessions\": " + std::to_string(sessions_ms) + ",\n";
  json += "    \"sweep\": " + std::to_string(sweep_ms) + ",\n";
  json += "    \"spill_write\": " + std::to_string(spill.spill_write_ms) +
          ",\n";
  json += "    \"spill_read\": " + std::to_string(spill.spill_read_ms) +
          ",\n";
  json += "    \"sink\": " + std::to_string(spill.sink_ms) + ",\n";
  json += "    \"spill_stall\": " + std::to_string(spill.append_stall_ms) +
          ",\n";
  json += "    \"total\": " + std::to_string(total_ms) + "\n";
  json += "  },\n";
  json += "  \"spill_budget_mb\": " +
          std::to_string(spill.spill_budget_mb) + ",\n";
  json += "  \"spill_bytes_written\": " +
          std::to_string(spill.spill_bytes_written) + ",\n";
  json += "  \"spill_bytes_read\": " +
          std::to_string(spill.spill_bytes_read) + ",\n";
  json += "  \"spill_blocks_mem\": " +
          std::to_string(spill.trace_blocks_in_memory) + ",\n";
  json += "  \"spill_blocks_disk\": " +
          std::to_string(spill.trace_blocks_on_disk) + ",\n";
  json += "  \"spill_ops_chunks_mem\": " +
          std::to_string(spill.ops_chunks_in_memory) + ",\n";
  json += "  \"spill_ops_chunks_disk\": " +
          std::to_string(spill.ops_chunks_on_disk) + ",\n";
  json += "  \"events_dispatched\": " +
          std::to_string(out.events_dispatched) + ",\n";
  json += "  \"events_per_sec\": " + std::to_string(events_per_sec) + ",\n";
  json += "  \"trace_records\": " + std::to_string(out.records) + ",\n";
  json += "  \"sorted_records\": " + std::to_string(out.streamed_records) +
          ",\n";
  json += "  \"replay_ops\": " + std::to_string(sweeps.replay_ops()) + ",\n";
  json += "  \"compute_sweep_points\": " +
          std::to_string(compute_results.size()) + ",\n";
  json += "  \"io_sweep_points\": " + std::to_string(io_results.size()) +
          ",\n";
  json += "  \"trace_digest\": \"" + std::string(digest_hex) + "\",\n";
  json += "  \"peak_rss_kb\": " + std::to_string(peak_rss_kb()) + "\n";
  json += "}\n";

  std::fputs(json.c_str(), stdout);
  if (out_file != nullptr) std::fputs(json.c_str(), out_file.get());
  out_file.reset();

  if (flags.has("check-digest")) {
    const std::string expected = flags.get("check-digest", "");
    if (expected != digest_hex) {
      std::fprintf(stderr,
                   "digest mismatch: expected %s, computed %s "
                   "(scale=%g seed=%llu)\n",
                   expected.c_str(), digest_hex, scale,
                   static_cast<unsigned long long>(seed));
      return 1;
    }
    std::fprintf(stderr, "digest check passed: %s\n", digest_hex);
  }
  return 0;
}

}  // namespace
}  // namespace charisma

int main(int argc, char** argv) {
  try {
    return charisma::run(argc, argv);
  } catch (const charisma::workload::ReplayFormatError& e) {
    std::fprintf(stderr, "perf_study: %s\n", e.what());
    return 1;
  } catch (const charisma::analysis::IoRateBoundError& e) {
    std::fprintf(stderr, "perf_study: %s\n", e.what());
    return 1;
  }
}
