#include "core/campaign.hpp"

#include <sstream>
#include <utility>

#include "analysis/analyzers.hpp"
#include "cache/simulators.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace charisma::core {

namespace {

/// The aggregated statistics, in report order.  A fixed table (not a map)
/// keeps the aggregate order code-defined and hash-free.
struct StatField {
  const char* name;
  double (*get)(const StudySummary&);
};

constexpr StatField kStatFields[] = {
    {"events_dispatched",
     [](const StudySummary& s) {
       return static_cast<double>(s.events_dispatched);
     }},
    {"records", [](const StudySummary& s) {
       return static_cast<double>(s.records);
     }},
    {"total_ops", [](const StudySummary& s) {
       return static_cast<double>(s.total_ops);
     }},
    {"sim_end_seconds", [](const StudySummary& s) {
       return static_cast<double>(s.sim_end) / 1e6;
     }},
    {"idle_fraction", [](const StudySummary& s) { return s.idle_fraction; }},
    {"multiprogrammed_fraction",
     [](const StudySummary& s) { return s.multiprogrammed_fraction; }},
    {"single_node_job_fraction",
     [](const StudySummary& s) { return s.single_node_job_fraction; }},
    {"small_read_fraction",
     [](const StudySummary& s) { return s.small_read_fraction; }},
    {"small_write_fraction",
     [](const StudySummary& s) { return s.small_write_fraction; }},
    {"temporary_fraction",
     [](const StudySummary& s) { return s.temporary_fraction; }},
    {"mode0_fraction",
     [](const StudySummary& s) { return s.mode0_fraction; }},
};

std::string format_scale(double scale) {
  std::ostringstream os;
  os << scale;
  return os.str();
}

/// The cache figures (8/9), appended to the trace-derived figure set.  A
/// serial grouped SweepRunner covers each figure's whole buffer grid in one
/// trace pass per (policy, topology) group: campaign workers already
/// saturate the pool one study per thread, so the win here is fewer passes,
/// not more threads.
void append_cache_figures(analysis::FigureSet& set,
                          const cache::SweepRunner& runner, int io_nodes) {
  const auto fracs = analysis::fraction_grid();
  const auto compute = runner.run_compute(figure_compute_configs());
  const auto sample_hit_rates = [&](const cache::ComputeCacheResult& r) {
    std::vector<double> ys;
    ys.reserve(fracs.size());
    for (double x : fracs) ys.push_back(r.hit_rate_cdf.at(x));
    return ys;
  };
  set.add("fig8_1buf", fracs, sample_hit_rates(compute[0]));
  set.add("fig8_50buf", fracs, sample_hit_rates(compute[1]));

  const auto buffers = analysis::fig9_buffer_grid();
  const auto io = runner.run_io(figure_io_configs(io_nodes));
  std::vector<double> lru, fifo;
  lru.reserve(buffers.size());
  fifo.reserve(buffers.size());
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    lru.push_back(io[i].hit_rate);
    fifo.push_back(io[buffers.size() + i].hit_rate);
  }
  set.add("fig9_lru", buffers, std::move(lru));
  set.add("fig9_fifo", buffers, std::move(fifo));
}

}  // namespace

std::vector<cache::ComputeCacheConfig> figure_compute_configs() {
  std::vector<cache::ComputeCacheConfig> configs(2);
  configs[0].buffers_per_node = 1;
  configs[1].buffers_per_node = 50;
  return configs;
}

std::vector<cache::IoNodeSimConfig> figure_io_configs(int io_nodes) {
  const auto buffers = analysis::fig9_buffer_grid();
  std::vector<cache::IoNodeSimConfig> configs;
  configs.reserve(2 * buffers.size());
  for (const cache::Policy policy :
       {cache::Policy::kLru, cache::Policy::kFifo}) {
    for (const double b : buffers) {
      cache::IoNodeSimConfig cfg;
      cfg.io_nodes = io_nodes;
      cfg.total_buffers = static_cast<std::size_t>(b);
      cfg.policy = policy;
      configs.push_back(cfg);
    }
  }
  return configs;
}

std::string describe_figure_sweep_plan(int io_nodes) {
  std::ostringstream os;
  os << "fig8 " << cache::plan_compute_sweep(figure_compute_configs()).describe()
     << "; fig9 "
     << cache::plan_io_sweep(figure_io_configs(io_nodes)).describe();
  return os.str();
}

double AggregateStat::ci95_half_width() const noexcept {
  // Delegates to the shared helper, which is defined (zero-width, never
  // NaN) for every replication count including n = 0 and n = 1.
  return util::ci95_half_width(summary);
}

StudySummary summarize_streamed_study(const std::string& label,
                                      const StudyConfig& config,
                                      StreamedStudyOutput&& output,
                                      bool with_figures) {
  StudySummary s;
  s.label = label;
  s.seed = config.workload.seed;
  s.scale = config.workload.scale;
  s.trace_digest = output.trace_digest;
  s.events_dispatched = output.events_dispatched;
  s.records = output.records;
  s.total_ops = output.total_ops;
  s.sim_end = output.sim_end;

  // The accumulators already ran during the study's one merge; everything
  // below reads their finished state.
  const analysis::SessionStore& store = output.sessions;
  const auto concurrency = analysis::analyze_job_concurrency(store);
  s.idle_fraction = concurrency.idle_fraction;
  s.multiprogrammed_fraction = concurrency.multiprogrammed_fraction;
  s.single_node_job_fraction =
      analysis::analyze_node_counts(store).single_node_job_fraction;
  s.small_read_fraction = output.request_sizes.small_read_fraction;
  s.small_write_fraction = output.request_sizes.small_write_fraction;
  s.temporary_fraction =
      analysis::analyze_file_population(store).temporary_fraction;
  s.mode0_fraction = analysis::analyze_mode_usage(store).mode0_fraction;

  if (with_figures) {
    s.figures = analysis::collect_trace_figures(store, output.request_sizes,
                                                output.header.block_size);
    const std::set<cache::SessionKey> read_only = store.read_only_sessions();
    const cache::SweepRunner runner(std::move(output.replay_ops), read_only);
    append_cache_figures(s.figures, runner, output.header.io_nodes);
  }
  return s;
}

std::vector<analysis::FigureEnvelope> fold_figure_envelopes(
    const std::vector<StudySummary>& studies) {
  std::vector<const analysis::FigureSet*> sets;
  sets.reserve(studies.size());
  for (const auto& s : studies) sets.push_back(&s.figures);
  return analysis::fold_envelopes(sets);
}

std::vector<AggregateStat> aggregate_campaign(
    const std::vector<StudySummary>& studies) {
  std::vector<AggregateStat> out;
  out.reserve(std::size(kStatFields));
  for (const auto& field : kStatFields) {
    AggregateStat stat;
    stat.name = field.name;
    for (const auto& s : studies) stat.summary.add(field.get(s));
    out.push_back(std::move(stat));
  }
  return out;
}

CampaignResult CampaignRunner::run(
    const std::vector<CampaignStudy>& studies) const {
  CampaignResult result;
  result.studies.resize(studies.size());
  {
    const util::MutexLock lock(mutex_);
    completed_ = 0;
  }
  const auto run_one = [&](std::size_t i) {
    const CampaignStudy& study = studies[i];
    // Distinct indices: workers never touch the same slot, and the output
    // order matches the input order whatever the schedule was.
    StreamOptions sopts;
    sopts.collect_replay_ops = options_.collect_figures;
    StreamedStudyOutput output = run_streamed_study(study.config, sopts);
    result.studies[i] =
        summarize_streamed_study(study.label, study.config, std::move(output),
                                 options_.collect_figures);
    note_study_done(studies.size());
  };
  if (options_.threads == 1) {
    for (std::size_t i = 0; i < studies.size(); ++i) run_one(i);
  } else {
    util::ThreadPool pool(options_.threads);
    // Audited: run_one writes only result.studies[i] (see its body above).
    // NOLINTNEXTLINE(charisma-shared-capture)
    util::parallel_for(pool, studies.size(), run_one);
  }
  result.aggregates = aggregate_campaign(result.studies);
  if (options_.collect_figures) {
    result.figure_envelopes = fold_figure_envelopes(result.studies);
  }
  return result;
}

std::size_t CampaignRunner::completed() const {
  const util::MutexLock lock(mutex_);
  return completed_;
}

void CampaignRunner::note_study_done(std::size_t total) const {
  const util::MutexLock lock(mutex_);
  ++completed_;
  if (options_.on_progress) options_.on_progress(completed_, total);
}

std::vector<CampaignStudy> seed_replications(const StudyConfig& base,
                                             std::size_t n,
                                             const std::string& prefix) {
  std::vector<CampaignStudy> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CampaignStudy study;
    study.config = base;
    study.config.workload.seed = base.workload.seed + i;
    study.label =
        prefix + "seed" + std::to_string(study.config.workload.seed);
    out.push_back(std::move(study));
  }
  return out;
}

std::vector<CampaignStudy> scale_sweep(
    const StudyConfig& base, const std::vector<double>& scales,
    const std::vector<std::uint64_t>& seeds) {
  CHECK(!scales.empty() && !seeds.empty(),
        "scale_sweep needs at least one scale and one seed");
  std::vector<CampaignStudy> out;
  out.reserve(scales.size() * seeds.size());
  for (const double scale : scales) {
    for (const std::uint64_t seed : seeds) {
      CampaignStudy study;
      study.config = base;
      study.config.workload.scale = scale;
      study.config.workload.seed = seed;
      study.label = "scale" + format_scale(scale) + "_seed" +
                    std::to_string(seed);
      out.push_back(std::move(study));
    }
  }
  return out;
}

}  // namespace charisma::core
