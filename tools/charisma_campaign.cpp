// charisma_campaign — runs a batch of studies (seed replications x scale
// points) in parallel and reports per-study digests plus aggregate paper
// statistics with 95% confidence intervals.
//
//   charisma_campaign [--seeds=42,43,44] [--scales=0.2] [--threads=N]
//                     [--smoke] [--figures=0|1]
//                     [--workload=synthetic|replay:<path>|checkpoint]
//                     [--out=DIR]
//
//   --seeds:   comma-separated workload seeds (default 42,43,44,45)
//   --scales:  comma-separated workload scales (default 0.2)
//   --workload: workload source behind the generator seam (default
//              synthetic; replay:<chwl path> replays a logged workload,
//              checkpoint runs the Daly-interval checkpoint archetype with
//              the --chkpoint-size/bw/runtime/mtti/nodes/chunk knobs)
//   --threads: campaign worker threads; 0 = hardware concurrency,
//              1 = serial (default 0)
//   --smoke:   use the tiny smoke workload/machine (CI cross-checks)
//   --figures: sample per-figure curves and fold envelope bands across the
//              replications (default 1; 0 skips the analyzer/cache replays
//              for pure-throughput runs)
//   --progress: print "finished/total" to stderr as studies complete
//              (stderr only, so the stdout determinism diffs in CI are
//              unaffected)
//   --out:     also write campaign_studies.tsv / campaign_aggregate.tsv
//              plus one campaign_<figure>.tsv envelope per figure
//
// The per-study digest lines and the per-figure envelope TSVs are the
// determinism contract: CI runs the same campaign at --threads=1 and
// --threads=2 and diffs both.
//
// An unknown flag, a numeric value (or --seeds/--scales item) that is not
// entirely a number, a --smoke/--figures/--progress value other than
// true/false/1/0/yes/no, a --scales item <= 0, a negative --threads, a
// --spill-budget-mb outside [0, core::kMaxSpillBudgetMb], a --chkpoint-*
// value the checkpoint plan cannot schedule or a bad --workload spec prints
// usage and exits 2 before any study runs; an unreadable or malformed replay
// log, a trace whose times overrun the I/O-rate timeline, or an --out
// directory that cannot be created (checked before any study runs), prints
// one line and exits 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/iorate.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "util/flags.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

using namespace charisma;

namespace {

// Wall time is reporting-only (studies/min throughput), never simulation
// input.
using WallClock = std::chrono::steady_clock;  // NOLINT(charisma-wallclock)

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: charisma_campaign [--seeds=42,43] [--scales=0.2] "
               "[--threads=N>=0] [--smoke] [--figures=0|1] [--progress] "
               "[--workload=synthetic|replay:<path>|checkpoint] "
               "[--chkpoint-*=...] [--spill-budget-mb=N] [--spill-dir=DIR] "
               "[--out=DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> known{"seeds",    "scales",  "threads",
                                 "smoke",    "figures", "progress",
                                 "workload", "out",     "spill-budget-mb",
                                 "spill-dir"};
  for (const auto& name : workload::checkpoint_flag_names()) {
    known.push_back(name);
  }
  util::Flags flags(argc, argv, known);
  if (flags.remaining_argc() > 1) return usage();

  std::vector<std::uint64_t> seeds;
  for (const auto& s : split_list(flags.get("seeds", "42,43,44,45"))) {
    const std::optional<std::uint64_t> seed =
        util::parse_number<std::uint64_t>(s);
    if (!seed) return usage();
    seeds.push_back(*seed);
  }
  std::vector<double> scales;
  for (const auto& s : split_list(flags.get("scales", "0.2"))) {
    const std::optional<double> scale = util::parse_number<double>(s);
    if (!scale || *scale <= 0.0) return usage();
    scales.push_back(*scale);
  }
  const std::optional<std::int64_t> threads = flags.try_get_int("threads", 0);
  core::StudyConfig base;
  // Per-study memory-tier budget; note campaign RSS scales with
  // threads x budget when studies overflow it.
  const std::optional<std::int64_t> spill_budget_mb =
      flags.try_get_int("spill-budget-mb", base.spill_budget_mb);
  const std::optional<bool> smoke = flags.try_get_bool("smoke", false);
  const std::optional<bool> figures = flags.try_get_bool("figures", true);
  const std::optional<bool> progress = flags.try_get_bool("progress", false);
  if (!smoke || !figures || !progress) return usage();
  if (*smoke) {
    // Tiny workload for CI determinism cross-checks; --seeds/--scales still
    // apply on top.
    base.workload = workload::WorkloadConfig::smoke();
  }
  if (seeds.empty() || scales.empty() || !threads || *threads < 0 ||
      !spill_budget_mb || *spill_budget_mb < 0 ||
      *spill_budget_mb > core::kMaxSpillBudgetMb ||
      !workload::apply_checkpoint_flags(flags, &base.workload)) {
    return usage();
  }
  std::string spec_error;
  const std::optional<workload::SourceSpec> source =
      workload::try_parse_source_spec(flags.get("workload", "synthetic"),
                                      &spec_error);
  if (!source.has_value()) {
    std::fprintf(stderr, "charisma_campaign: %s\n", spec_error.c_str());
    return usage();
  }

  base.source = *source;
  base.spill_budget_mb = *spill_budget_mb;
  base.spill_dir = flags.get("spill-dir", "");
  const std::string out_dir = flags.get("out", ".");
  if (flags.has("out")) {
    // Created before any study runs, so an unwritable path costs one line,
    // not a finished campaign.
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::fprintf(stderr,
                   "charisma_campaign: cannot create --out directory %s: "
                   "%s\n",
                   out_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  const auto studies = core::scale_sweep(base, scales, seeds);
  core::CampaignOptions options;
  options.threads = static_cast<std::size_t>(*threads);
  options.collect_figures = *figures;
  if (options.collect_figures) {
    // How many trace passes the cache figures cost per replication, so
    // throughput comparisons across versions are self-describing.
    std::printf("figure sweep plan: %s\n",
                core::describe_figure_sweep_plan().c_str());
  }
  if (*progress) {
    // stderr, never stdout: the stdout study/digest lines are the
    // determinism contract CI diffs across thread counts.
    options.on_progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "progress: %zu/%zu studies\n", done, total);
    };
  }
  const core::CampaignRunner runner(options);

  const auto start = WallClock::now();
  core::CampaignResult result;
  try {
    result = runner.run(studies);
  } catch (const workload::ReplayFormatError& e) {
    std::fprintf(stderr, "charisma_campaign: %s\n", e.what());
    return 1;
  } catch (const analysis::IoRateBoundError& e) {
    std::fprintf(stderr, "charisma_campaign: %s\n", e.what());
    return 1;
  }
  const double seconds =
      std::chrono::duration<double>(WallClock::now() - start).count();

  for (const auto& s : result.studies) {
    std::printf("study %-24s seed=%llu scale=%g digest=0x%016llx "
                "events=%llu records=%llu ops=%llu\n",
                s.label.c_str(), static_cast<unsigned long long>(s.seed),
                s.scale, static_cast<unsigned long long>(s.trace_digest),
                static_cast<unsigned long long>(s.events_dispatched),
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.total_ops));
  }
  std::printf("aggregate over %zu studies:\n", result.studies.size());
  for (const auto& a : result.aggregates) {
    std::printf("  %-26s mean=%.6g stddev=%.6g ci95=+-%.6g min=%.6g "
                "max=%.6g\n",
                a.name.c_str(), a.summary.mean(), a.summary.stddev(),
                a.ci95_half_width(), a.summary.min(), a.summary.max());
  }
  for (const auto& env : result.figure_envelopes) {
    // One line per figure so the envelope fold is diffable in CI too; the
    // band summary is the widest max-min spread over the grid.
    double spread = 0.0;
    for (std::size_t i = 0; i < env.size(); ++i) {
      spread = std::max(spread, env.max[i] - env.min[i]);
    }
    std::printf("figure %-24s points=%zu reps=%llu max_band=%.6g\n",
                env.name.c_str(), env.size(),
                static_cast<unsigned long long>(env.replications), spread);
  }
  const std::size_t effective_threads =
      options.threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.threads;
  std::printf("campaign: %zu studies, %zu threads, %.2f s wall, "
              "%.2f studies/min\n",
              result.studies.size(), effective_threads, seconds,
              seconds > 0 ? 60.0 * static_cast<double>(
                                       result.studies.size()) / seconds
                          : 0.0);

  if (flags.has("out")) {
    try {
      const auto exported = core::export_campaign(result, out_dir);
      std::printf("wrote %d campaign files to %s\n", exported.files_written,
                  exported.directory.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "charisma_campaign: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
