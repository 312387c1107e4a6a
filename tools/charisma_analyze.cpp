// charisma_analyze — offline analysis of a saved CHARISMA trace.
//
// Reads a binary trace written by the collector (e.g. via
// `trace_and_characterize --out=nas.chtr`) and runs the requested analyses,
// like the analysis programs behind the paper's §4.
//
// The trace is *streamed* through core::merge_study, the front end a live
// study runs too: the file's blocks are merged in corrected chronological
// order and pushed once through the bounded-state sinks (the accumulators,
// the replay-op spill, and with --strided the strided rewriter), so
// resident memory is O(merge window) — a trace far larger than RAM still
// analyzes.  The file is opened tolerantly: a trace cut short
// by a crash (unpatched block count, torn final block) analyzes up to the
// crash point with a warning instead of failing.
//
//   charisma_analyze <trace.chtr> [--report=<section>] [--cache=<sim>]
//                    [--buffers=N] [--policy=lru|fifo|ip] [--strided]
//   charisma_analyze --workload=synthetic|replay:<chwl>|checkpoint
//                    [--scale=S] [--seed=N]
//                    [--chkpoint-*=...] [same analysis flags]
//   charisma_analyze --workload=... --dump-workload=<out.chwl>
//
//   --report:  all (default), jobs, nodes, population, files-per-job,
//              sizes, requests, sequentiality, intervals, regularity,
//              modes, sharing, paper (measured-vs-published deltas per
//              figure, with the fidelity tolerance bands)
//   --cache:   io | compute | combined  (trace-driven cache simulation)
//   --workload: instead of reading a saved trace, run a full study from the
//              named workload source and analyze its trace — so a replayed
//              chwl log (or the checkpoint archetype) gets the complete
//              paper-figure report end to end
//   --dump-workload: export the selected source's op stream as a chwl v1
//              text log (see workload/replay.hpp for the schema) and exit
//   --strided: also rewrite each request stream into strided requests
//              (paper §5) and print what that saves
//
// An unknown flag, a bad --report/--cache/--policy name, a --strided value
// other than true/false/1/0/yes/no, a numeric value that is not entirely a
// number, a --scale <= 0, a negative --buffers, a
// --spill-budget-mb outside [0, core::kMaxSpillBudgetMb] or a bad
// --workload spec prints usage and exits 2 before anything runs; an
// unreadable or corrupt trace or replay log prints one line and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fidelity.hpp"
#include "cache/replay.hpp"
#include "cache/simulators.hpp"
#include "core/report.hpp"
#include "core/stream_study.hpp"
#include "core/strided.hpp"
#include "trace/spill.hpp"
#include "util/flags.hpp"
#include "util/units.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

using namespace charisma;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: charisma_analyze <trace.chtr> [--report=SECTION] "
               "[--cache=io|compute|combined] [--buffers=N] "
               "[--policy=lru|fifo|ip] [--strided] "
               "[--spill-budget-mb=N] [--spill-dir=DIR]\n"
               "       charisma_analyze --workload=synthetic|replay:<chwl>|"
               "checkpoint [--scale=S] [--seed=N] "
               "[--chkpoint-*=...] [analysis flags]\n"
               "       charisma_analyze --workload=... "
               "--dump-workload=<out.chwl>\n");
  return 2;
}

[[nodiscard]] bool known_report(const std::string& report) {
  const auto sections = core::report_sections();
  return report == "all" || report == "paper" ||
         std::any_of(sections.begin(), sections.end(),
                     [&](const core::ReportSection& s) {
                       return report == s.name;
                     });
}

[[nodiscard]] std::optional<cache::Policy> parse_policy(
    const std::string& name) {
  if (name == "lru") return cache::Policy::kLru;
  if (name == "fifo") return cache::Policy::kFifo;
  if (name == "ip") return cache::Policy::kInterprocessAware;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> known{
      "report", "cache", "buffers", "policy", "strided", "workload",
      "dump-workload", "scale", "seed", "spill-budget-mb", "spill-dir"};
  for (const auto& name : workload::checkpoint_flag_names()) {
    known.push_back(name);
  }
  util::Flags flags(argc, argv, known);

  // Every named flag value is checked before anything runs, so a bad one is
  // a usage error rather than an abort (or a misread trace path).
  std::string spec_error;
  const std::optional<workload::SourceSpec> parsed_spec =
      workload::try_parse_source_spec(flags.get("workload", "synthetic"),
                                      &spec_error);
  if (!parsed_spec.has_value()) {
    std::fprintf(stderr, "charisma_analyze: %s\n", spec_error.c_str());
    return usage();
  }
  const std::string report = flags.get("report", "all");
  const std::string sim = flags.get("cache", "io");
  const std::optional<cache::Policy> parsed_policy =
      parse_policy(flags.get("policy", "lru"));
  const bool stray_flag = std::any_of(
      flags.remaining().begin() + 1, flags.remaining().end(),
      [](const char* arg) { return std::strncmp(arg, "--", 2) == 0; });
  // Workload-source modes share one config: --scale/--seed/--chkpoint-*
  // apply on top of the NAS defaults.
  workload::WorkloadConfig wconfig;
  const std::optional<double> scale =
      flags.try_get_double("scale", wconfig.scale);
  const std::optional<std::int64_t> seed =
      flags.try_get_int("seed", static_cast<std::int64_t>(wconfig.seed));
  const std::optional<std::int64_t> spill_budget_flag =
      flags.try_get_int("spill-budget-mb", core::kDefaultSpillBudgetMb);
  const std::optional<std::int64_t> buffers_flag =
      flags.try_get_int("buffers", 4000);
  const std::optional<bool> strided_flag = flags.try_get_bool("strided", false);
  if (!parsed_policy.has_value() || stray_flag || !strided_flag ||
      !known_report(report) ||
      (sim != "io" && sim != "compute" && sim != "combined") || !scale ||
      *scale <= 0.0 || !seed || !spill_budget_flag || *spill_budget_flag < 0 ||
      *spill_budget_flag > core::kMaxSpillBudgetMb || !buffers_flag ||
      *buffers_flag < 0 ||
      !workload::apply_checkpoint_flags(flags, &wconfig)) {
    return usage();
  }
  const workload::SourceSpec& source_spec = *parsed_spec;
  const cache::Policy policy = *parsed_policy;
  wconfig.scale = *scale;
  wconfig.seed = static_cast<std::uint64_t>(*seed);

  if (flags.has("dump-workload")) {
    // Export-only mode: write the source's op stream as a chwl log.
    const std::string out_path = flags.get("dump-workload", "");
    if (!flags.has("workload") || out_path.empty()) return usage();
    try {
      const auto source = workload::load_source(source_spec, wconfig);
      workload::export_source_log(*source, out_path);
      std::printf("dumped workload '%s' (%zu jobs, %zu input files) to %s\n",
                  workload::to_string(source_spec).c_str(),
                  source->workload().jobs.size(),
                  source->workload().inputs.size(), out_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot dump workload: %s\n", e.what());
      return 1;
    }
    return 0;
  }

  // Exactly one trace origin: a saved trace file, or a study run live from
  // a workload source.
  const bool study_mode = flags.has("workload");
  if (flags.remaining_argc() != (study_mode ? 1 : 2)) return usage();
  const std::string path = study_mode ? "" : flags.remaining()[1];
  const auto want = [&](const char* name) {
    return report == "all" || report == name;
  };
  // Figure 8 / --cache both replay the filtered op stream; collect it during
  // the streaming merge only when something will consume it.
  const bool want_ops = want("paper") || flags.has("cache");
  // Streaming spill knobs (study mode and file mode alike).
  const std::int64_t spill_budget_mb = *spill_budget_flag;
  const std::string spill_dir = flags.get("spill-dir", "");

  const bool want_strided = *strided_flag;
  core::StreamOptions sopts;
  sopts.collect_replay_ops = want_ops;
  core::StreamedStudyOutput out;
  std::optional<core::StridedRewriter> strided;
  const auto extra_sinks = [&](int io_nodes, std::int64_t block_size) {
    std::vector<trace::RecordSink*> sinks;
    if (want_strided) {
      strided.emplace(io_nodes, block_size);
      sinks.push_back(&*strided);
    }
    return sinks;
  };

  try {
    if (study_mode) {
      core::StudyConfig config;
      config.workload = wconfig;
      config.source = source_spec;
      config.spill_budget_mb = spill_budget_mb;
      config.spill_dir = spill_dir;
      // The collector stamps the header with these two values.
      (void)core::stream_study(
          config, sopts, out,
          extra_sinks(config.machine.io_nodes, util::kBlockSize));
    } else {
      bool truncated = false;
      const trace::SpilledTrace spilled =
          trace::SpilledTrace::open(path, /*tolerant=*/true, &truncated);
      if (truncated) {
        std::fprintf(stderr,
                     "warning: %s is truncated (crashed writer?); analyzing "
                     "the %llu complete blocks before the tear\n",
                     path.c_str(),
                     static_cast<unsigned long long>(spilled.blocks.size()));
      }
      trace::SpillBudget budget(spill_budget_mb * (std::int64_t{1} << 20));
      core::merge_study(
          spilled, sopts, budget, spill_dir, out,
          extra_sinks(spilled.header.io_nodes, spilled.header.block_size));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot %s %s: %s\n",
                 study_mode ? "run workload" : "read",
                 study_mode ? workload::to_string(source_spec).c_str()
                            : path.c_str(),
                 e.what());
    return 1;
  }
  const trace::TraceHeader& header = out.header;
  std::printf("trace '%s': %llu records from %d compute / %d I/O nodes\n",
              header.label.c_str(),
              static_cast<unsigned long long>(out.streamed_records),
              header.compute_nodes, header.io_nodes);

  for (const core::ReportSection& section : core::report_sections()) {
    if (want(section.name)) {
      std::printf("%s", core::render_section(section, out).c_str());
    }
  }

  // Both cache consumers share one runner over one op spill.
  const std::set<cache::SessionKey> read_only =
      out.sessions.read_only_sessions();
  std::optional<cache::SweepRunner> runner;
  if (want_ops) runner.emplace(std::move(out.replay_ops), read_only);

  if (want("paper")) {
    // Figure 8's statistics come from the compute-cache replay (one buffer
    // per node, the paper's configuration).
    const auto compute = runner->run_compute({cache::ComputeCacheConfig{}});
    const analysis::CacheFigures cache_figs{
        compute[0].fraction_jobs_above_75, compute[0].fraction_jobs_zero};
    const auto checks = analysis::check_paper_fidelity(
        out.sessions, out.request_sizes, header.block_size, &cache_figs);
    std::printf("--- Paper-vs-measured deltas ---\n%s\n",
                analysis::render_fidelity(checks).c_str());
  }

  if (flags.has("cache")) {
    const auto buffers = static_cast<std::size_t>(*buffers_flag);
    if (sim == "compute") {
      cache::ComputeCacheConfig cfg;
      cfg.buffers_per_node = std::max<std::size_t>(buffers / 4000, 1);
      const auto r = runner->run_compute({cfg})[0];
      std::printf(
          "compute-node cache: %zu jobs, %.1f%% at zero, %.1f%% above "
          "75%%, overall hit rate %.1f%%\n",
          r.job_hit_rates.size(), r.fraction_jobs_zero * 100.0,
          r.fraction_jobs_above_75 * 100.0, r.overall_hit_rate() * 100.0);
    } else {
      cache::IoNodeSimConfig cfg;
      cfg.io_nodes = header.io_nodes;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      if (sim == "combined") cfg.compute_buffers_per_node = 1;
      const auto r = runner->run_io({cfg})[0];
      std::printf("I/O-node cache (%s, %zu buffers): %s\n",
                  to_string(policy), buffers, r.describe().c_str());
    }
  }

  if (strided.has_value()) {
    std::printf("--- Strided rewriting (S5) ---\n%s\n",
                strided->finish().render().c_str());
  }
  return 0;
}
