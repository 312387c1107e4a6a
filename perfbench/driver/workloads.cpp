#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>

#include "analysis/fidelity.hpp"
#include "core/export.hpp"
#include "core/stream_study.hpp"
#include "rig.hpp"
#include "util/thread_pool.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

namespace perfbench {

namespace {

/// 64-bit FNV-1a over raw bytes.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t get() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

cache::IoNodeSimConfig io_config(std::size_t buffers, cache::Policy policy,
                                 int io_nodes, std::size_t front) {
  cache::IoNodeSimConfig cfg;
  cfg.total_buffers = buffers;
  cfg.policy = policy;
  cfg.io_nodes = io_nodes;
  cfg.compute_buffers_per_node = front;
  return cfg;
}

WorkloadSize workload_size_at(Workload w, std::uint64_t seed) {
  // nas-replay replays exactly the synthetic workload of its seed.
  const Workload generated =
      w == Workload::kNasReplay ? Workload::kNasStudy : w;
  WorkloadSize size;
  for (const auto& config : iteration_configs(generated, seed, "")) {
    const std::unique_ptr<workload::Source> source =
        workload::load_source(config.source, config.workload);
    const auto& jobs = source->workload().jobs;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      (void)source->start_job(j);
      // The Driver clamps a job to the machine width the same way.
      const std::int32_t ranks =
          std::min(jobs[j].nodes, config.machine.compute_nodes);
      for (std::int32_t rank = 0; rank < ranks; ++rank) {
        for (workload::Op op = source->next(j, rank);
             op.kind != workload::OpKind::kEnd; op = source->next(j, rank)) {
          ++size.ops;
          if (jobs[j].traced && (op.kind == workload::OpKind::kRead ||
                                 op.kind == workload::OpKind::kWrite)) {
            ++size.traced_data_ops;
            size.traced_data_bytes += static_cast<std::uint64_t>(op.bytes);
          }
        }
      }
      source->end_job(j);
    }
  }
  return size;
}

/// User + system CPU seconds of the whole process so far, every thread
/// (ended ones too) included.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "nas-study") return Workload::kNasStudy;
  if (name == "nas-replay") return Workload::kNasReplay;
  if (name == "checkpoint-sweep") return Workload::kCheckpointSweep;
  if (name == "nas-campaign") return Workload::kNasCampaign;
  return std::nullopt;
}

std::size_t pool_threads(Workload w) {
  return w == Workload::kNasStudy ? kNasStudyPoolThreads : 1;
}

core::StudyConfig study_config(Workload w, std::uint64_t seed,
                               const std::string& log) {
  core::StudyConfig config;
  config.workload.seed = seed;
  config.workload.scale = kNasScale;
  if (w == Workload::kNasReplay) {
    config.source = workload::parse_source_spec("replay:" + log);
  } else if (w == Workload::kCheckpointSweep) {
    config.source = workload::parse_source_spec("checkpoint");
  }
  return config;
}

std::vector<core::CampaignStudy> campaign_studies(std::uint64_t seed) {
  core::StudyConfig base;
  base.workload.seed = seed;
  base.workload.scale = kCampaignScale;
  base.spill_budget_mb = kCampaignSpillBudgetMb;
  return core::seed_replications(base, kCampaignStudies);
}

core::CampaignOptions campaign_options() {
  core::CampaignOptions options;
  options.threads = kCampaignWorkers;
  return options;
}

std::vector<core::StudyConfig> iteration_configs(Workload w,
                                                 std::uint64_t seed,
                                                 const std::string& log) {
  if (w != Workload::kNasCampaign) return {study_config(w, seed, log)};
  std::vector<core::StudyConfig> configs;
  for (const auto& study : campaign_studies(seed)) {
    configs.push_back(study.config);
  }
  return configs;
}

std::vector<cache::ComputeCacheConfig> fig8_configs() {
  std::vector<cache::ComputeCacheConfig> configs(3);
  configs[0].buffers_per_node = 1;
  configs[1].buffers_per_node = 10;
  configs[2].buffers_per_node = 50;
  return configs;
}

std::vector<IoSubset> io_subsets() {
  const std::size_t grid[] = {100,  250,  500,   1000, 2000,
                              4000, 8000, 16000, 25000};
  std::vector<IoSubset> subsets = {{"cache.fig9_lru", {}},
                                   {"cache.fig9_fifo", {}},
                                   {"cache.fig9_topology", {}},
                                   {"cache.sec48", {}}};
  for (const std::size_t buffers : grid) {
    subsets[0].configs.push_back(
        io_config(buffers, cache::Policy::kLru, 10, 0));
    subsets[1].configs.push_back(
        io_config(buffers, cache::Policy::kFifo, 10, 0));
  }
  for (const int io_nodes : {1, 2, 5, 10, 20}) {
    subsets[2].configs.push_back(
        io_config(4000, cache::Policy::kLru, io_nodes, 0));
  }
  for (const std::size_t front : {0u, 1u}) {
    subsets[3].configs.push_back(
        io_config(500, cache::Policy::kLru, 10, front));
  }
  return subsets;
}

SweepResults run_sweep(const cache::SweepRunner& runner) {
  std::vector<cache::IoNodeSimConfig> io;
  for (const IoSubset& subset : io_subsets()) {
    io.insert(io.end(), subset.configs.begin(), subset.configs.end());
  }
  SweepResults out;
  out.compute = runner.run_compute(fig8_configs());
  out.io = runner.run_io(io);
  return out;
}

std::string Identity::json() const {
  std::string list = "[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    if (i > 0) list += ", ";
    list += JsonObject::quote(hex(digests[i]));
  }
  list += "]";
  JsonObject obj;
  obj.raw("digests", list)
      .integer("records", records)
      .integer("events", events);
  if (sweep.has_value()) obj.string("sweep", hex(*sweep));
  if (analysis.has_value()) obj.string("analysis", hex(*analysis));
  if (fidelity_bands > 0) {
    obj.integer("fidelity_bands", static_cast<std::uint64_t>(fidelity_bands))
        .integer("fidelity_outside",
                 static_cast<std::uint64_t>(fidelity_outside));
  }
  return obj.str();
}

std::uint64_t fingerprint(const SweepResults& results) {
  Fnv fnv;
  for (const auto& r : results.compute) {
    fnv.value(r.reads);
    fnv.value(r.hits);
    fnv.value(r.job_hit_rates.size());
  }
  for (const auto& r : results.io) {
    fnv.value(r.requests);
    fnv.value(r.request_hits);
    fnv.value(r.block_accesses);
    fnv.value(r.block_hits);
    fnv.value(r.filtered_by_compute);
  }
  return fnv.get();
}

std::uint64_t fingerprint(const std::vector<core::StudySummary>& studies) {
  Fnv fnv;
  for (const auto& s : studies) {
    for (const auto& curve : s.figures.curves) {
      fnv.bytes(curve.name.data(), curve.name.size());
      for (const double y : curve.ys) fnv.value(y);
    }
  }
  return fnv.get();
}

std::uint64_t run_analyzers(const analysis::SessionStore& store,
                            std::int64_t block_size) {
  Fnv fnv;
  const auto jobs = analysis::analyze_job_concurrency(store);
  fnv.value(jobs.idle_fraction);
  fnv.value(jobs.max_concurrent);
  const auto nodes = analysis::analyze_node_counts(store);
  fnv.value(nodes.total_jobs);
  fnv.value(nodes.single_node_job_fraction);
  const auto sizes = analysis::analyze_file_sizes(store);
  fnv.value(sizes.files);
  fnv.value(sizes.median);
  const auto seq = analysis::analyze_sequentiality(store);
  fnv.value(seq.read_only.files);
  fnv.value(seq.write_only.fully_consecutive);
  const auto sharing = analysis::analyze_sharing(store, block_size);
  fnv.value(sharing.read_only.files);
  fnv.value(sharing.read_write.fully_block_shared);
  const auto per_job = analysis::analyze_files_per_job(store);
  fnv.value(per_job.buckets);
  const auto intervals = analysis::analyze_intervals(store);
  fnv.value(intervals.buckets);
  const auto regularity = analysis::analyze_request_regularity(store);
  fnv.value(regularity.buckets);
  const auto population = analysis::analyze_file_population(store);
  fnv.value(population.sessions);
  fnv.value(population.temporary);
  const auto modes = analysis::analyze_mode_usage(store);
  fnv.value(modes.sessions_by_mode);
  return fnv.get();
}

Fidelity check_fidelity(const analysis::SessionStore& store,
                        const analysis::RequestSizeResult& requests,
                        std::int64_t block_size,
                        const cache::ComputeCacheResult* fig8_one_buffer) {
  std::optional<analysis::CacheFigures> cache_figures;
  if (fig8_one_buffer != nullptr) {
    cache_figures = analysis::CacheFigures{
        fig8_one_buffer->fraction_jobs_above_75,
        fig8_one_buffer->fraction_jobs_zero};
  }
  const auto checks = analysis::check_paper_fidelity(
      store, requests, block_size,
      cache_figures.has_value() ? &*cache_figures : nullptr);
  Fidelity out;
  out.bands = static_cast<int>(checks.size());
  for (const auto& c : checks) out.outside += c.pass() ? 0 : 1;
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<WorkloadSize> workload_sizes(
    Workload w, const std::vector<std::uint64_t>& seeds) {
  std::vector<WorkloadSize> out(seeds.size());
  util::ThreadPool pool;
  // Each index writes only its own slot.
  util::parallel_for(pool, seeds.size(), [&out, &seeds, w](std::size_t i) {
    out[i] = workload_size_at(w, seeds[i]);
  });
  return out;
}

std::string export_log(std::uint64_t seed, const std::string& log) {
  const core::StudyConfig config = study_config(Workload::kNasStudy, seed, "");
  const HostClock::time_point start = HostClock::now();
  const std::unique_ptr<workload::Source> source =
      workload::load_source(config.source, config.workload);
  workload::export_source_log(*source, log);
  const double gen_s = seconds_between(start, HostClock::now());
  return JsonObject()
      .integer("log_bytes", std::filesystem::file_size(log))
      .number("gen_s", gen_s)
      .str();
}

std::string reference_digests(Workload w, std::uint64_t seed) {
  std::vector<core::StudyConfig> configs;
  if (w == Workload::kNasReplay) {
    configs = iteration_configs(Workload::kNasStudy, seed, "");
  } else if (w == Workload::kNasCampaign) {
    configs = iteration_configs(w, seed, "");
  }
  Identity identity;
  identity.digests.resize(configs.size());
  core::StreamOptions options;  // the digest is folded before any sink runs
  options.collect_replay_ops = false;
  options.collect_rate_figures = false;
  // The studies are independent and untimed: one per hardware thread.
  util::ThreadPool pool;
  util::parallel_for(pool, configs.size(),
                     [&identity, &configs, &options](std::size_t i) {
                       identity.digests[i] =
                           core::run_streamed_study(configs[i], options)
                               .trace_digest;
                     });
  return identity.json();
}

namespace {

/// The workload's set-up (pool, source loads, spill budgets, rigs),
/// repeated until kSetupSeconds have passed (at least once); the time of
/// each repeat.
std::vector<double> time_setup(Workload w, std::uint64_t seed,
                               const std::string& log) {
  const std::vector<core::StudyConfig> configs =
      iteration_configs(w, seed, log);
  const std::size_t threads =
      w == Workload::kNasCampaign ? kCampaignWorkers : pool_threads(w);
  std::vector<double> samples;
  const HostClock::time_point first = HostClock::now();
  while (samples.empty() ||
         seconds_between(first, HostClock::now()) < kSetupSeconds) {
    // Destroyed after the sample is taken: tear-down is not set-up.
    std::optional<util::ThreadPool> pool;
    std::vector<std::unique_ptr<workload::Source>> sources;
    std::vector<std::unique_ptr<trace::SpillBudget>> budgets;
    std::vector<std::unique_ptr<Rig>> rigs;
    const HostClock::time_point start = HostClock::now();
    if (threads > 1) pool.emplace(threads);
    for (const auto& config : configs) {
      sources.push_back(workload::load_source(config.source, config.workload));
      budgets.push_back(std::make_unique<trace::SpillBudget>(
          config.spill_budget_mb << 20));
      rigs.push_back(
          std::make_unique<Rig>(config, *sources.back(), *budgets.back()));
    }
    samples.push_back(seconds_between(start, HostClock::now()));
  }
  return samples;
}

/// One untraced iteration of the workload; its outputs.
Identity run_iteration(Workload w, std::uint64_t seed, const std::string& log,
                       const std::string& work_dir) {
  Identity identity;
  if (w == Workload::kNasCampaign) {
    const core::CampaignResult result =
        core::CampaignRunner(campaign_options()).run(campaign_studies(seed));
    const std::string out_dir = work_dir + "/campaign_export";
    std::filesystem::create_directories(out_dir);
    (void)core::export_campaign(result, out_dir);
    for (const auto& s : result.studies) {
      identity.digests.push_back(s.trace_digest);
      identity.records += s.records;
      identity.events += s.events_dispatched;
    }
    identity.sweep = fingerprint(result.studies);
    return identity;
  }
  const bool nas = w != Workload::kCheckpointSweep;
  std::optional<util::ThreadPool> pool;
  if (pool_threads(w) > 1) pool.emplace(pool_threads(w));
  core::StreamOptions options;
  options.collect_replay_ops = w != Workload::kNasReplay;
  core::StreamedStudyOutput out =
      core::run_streamed_study(study_config(w, seed, log), options);
  identity.digests.push_back(out.trace_digest);
  identity.records = out.records;
  identity.events = out.events_dispatched;
  const std::int64_t block_size = out.header.block_size;
  if (nas) identity.analysis = run_analyzers(out.sessions, block_size);
  std::optional<SweepResults> sweep;
  if (options.collect_replay_ops) {
    const std::set<cache::SessionKey> read_only =
        out.sessions.read_only_sessions();
    std::optional<cache::SweepRunner> runner;
    if (pool.has_value()) {
      runner.emplace(std::move(out.replay_ops), read_only, *pool);
    } else {
      runner.emplace(std::move(out.replay_ops), read_only);
    }
    sweep = run_sweep(*runner);
    identity.sweep = fingerprint(*sweep);
  }
  if (nas) {
    const Fidelity fidelity =
        check_fidelity(out.sessions, out.request_sizes, block_size,
                       sweep.has_value() ? &sweep->compute[0] : nullptr);
    identity.fidelity_bands = fidelity.bands;
    identity.fidelity_outside = fidelity.outside;
  }
  return identity;
}

}  // namespace

std::string run_timed(Workload w, std::uint64_t seed, const std::string& log,
                      const std::string& work_dir) {
  const std::vector<double> setup = time_setup(w, seed, log);
  const double cpu_before = cpu_seconds();
  const HostClock::time_point start = HostClock::now();
  const Identity identity = run_iteration(w, seed, log, work_dir);
  const double wall_s = seconds_between(start, HostClock::now());
  const double cpu_s = cpu_seconds() - cpu_before;
  std::string samples = "[";
  for (std::size_t i = 0; i < setup.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? ", " : "", setup[i]);
    samples += buf;
  }
  return JsonObject()
      .raw("identity", identity.json())
      .number("wall_s", wall_s)
      .number("cpu_s", cpu_s)
      .number("peak_rss_mb", peak_rss_mb())
      .raw("setup_s", samples + "]")
      .str();
}

}  // namespace perfbench
