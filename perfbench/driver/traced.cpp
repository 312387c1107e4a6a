// The traced iteration.  It rebuilds core::run_streamed_study from the
// library's public parts so each module's calls get a span of their own,
// then runs the rest of the workload with a span around every public call.
// Its digests, counts and sweep results must equal the timed iteration's;
// run.py fails the run when they do not.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "analysis/figures.hpp"
#include "analysis/iorate.hpp"
#include "core/export.hpp"
#include "core/stream_study.hpp"
#include "rig.hpp"
#include "trace/postprocess.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

struct TracedStudyOptions {
  bool collect_replay_ops = true;
  /// Extra merges that price each sink on its own (bare merge, sessions
  /// only, rate sinks only, replay ops only); the campaign skips them so
  /// its serial studies do only what the campaign's studies do.
  bool price_sinks = true;
};

struct TracedStudy {
  core::StreamedStudyOutput out;
  std::unique_ptr<workload::Source> source;
  /// The replay ops of the ops-only pricing merge, for the serial sweep.
  std::optional<cache::ReplayOpSpill> priced_ops;
};

/// One stream_postprocess pass under its own span; returns its stats.
trace::StreamMergeStats merge(Tracer& tracer, const char* span,
                              const trace::SpilledTrace& spilled,
                              const std::vector<trace::RecordSink*>& sinks) {
  trace::StreamMergeStats stats;
  trace::StreamMergeOptions options;
  options.stats = &stats;
  const auto scope = tracer.span(span);
  (void)trace::stream_postprocess(spilled, sinks, options);
  return stats;
}

/// core::run_streamed_study, step by step: same rig, same construction
/// order, same seeds, same sinks.
TracedStudy traced_study(Tracer& tracer, const core::StudyConfig& config,
                         const TracedStudyOptions& options) {
  TracedStudy result;
  core::StreamedStudyOutput& out = result.out;
  {
    const auto scope = tracer.span("workload.load");
    result.source = workload::load_source(config.source, config.workload);
  }
  trace::SpillBudget budget(config.spill_budget_mb * kMiB);
  std::optional<Rig> rig;
  {
    const auto scope = tracer.span("ipsc.build");
    rig.emplace(config, *result.source, budget);
  }
  {
    const auto scope = tracer.span("sim.run");
    rig->driver.run();
  }

  out.jobs = rig->driver.results();
  out.records = rig->collector.records_seen();
  out.collector_messages = rig->collector.messages_to_collector();
  out.trace_bytes = rig->collector.trace_bytes_written();
  out.total_ops = rig->driver.total_ops();
  out.events_dispatched = rig->engine.dispatched_events();
  out.sim_end = rig->engine.now();
  tracer.add("workload.jobs", static_cast<double>(out.jobs.size()));
  tracer.add("workload.ops", static_cast<double>(out.total_ops));
  tracer.add("workload.retries",
             static_cast<double>(rig->driver.mode_retries()));
  std::uint64_t io_errors = 0;
  for (const auto& job : out.jobs) io_errors += job.io_errors;
  tracer.add("workload.io_errors", static_cast<double>(io_errors));
  tracer.add("sim.events", static_cast<double>(out.events_dispatched));
  tracer.add("sim.end_us", static_cast<double>(out.sim_end));
  for (int i = 0; i < rig->runtime.io_node_count(); ++i) {
    const cfs::IoNode& node = rig->runtime.io_node(i);
    tracer.add("cfs.ionode_requests", static_cast<double>(node.requests()));
    tracer.add("cfs.ionode_hits", static_cast<double>(node.cache_hits()));
    tracer.add("cfs.disk_reads", static_cast<double>(node.disk_reads()));
    tracer.add("cfs.disk_writes", static_cast<double>(node.disk_writes()));
  }
  tracer.add("cfs.files",
             static_cast<double>(rig->runtime.fs().file_count()));
  for (int d = 0; d < rig->machine.io_nodes(); ++d) {
    const disk::Disk& disk = rig->machine.disk(d);
    tracer.add("disk.requests", static_cast<double>(disk.requests()));
    tracer.add("disk.bytes", static_cast<double>(disk.bytes_moved()));
    tracer.add("disk.busy_us", static_cast<double>(disk.busy_time()));
    tracer.add("disk.span_us", static_cast<double>(out.sim_end));
  }
  tracer.add("trace.records", static_cast<double>(out.records));
  tracer.add("trace.collector_messages",
             static_cast<double>(out.collector_messages));
  tracer.add("trace.bytes", static_cast<double>(out.trace_bytes));

  std::optional<trace::SpilledTrace> spilled;
  {
    const auto scope = tracer.span("trace.take_spilled");
    spilled.emplace(rig->collector.take_spilled());
  }
  out.header = spilled->header;
  {
    const auto scope = tracer.span("trace.digest");
    out.trace_digest = spilled->digest();
  }

  // The study's own merge: every sink in one pass.
  analysis::SessionAccumulator sessions;
  analysis::RequestSizeAccumulator request_sizes;
  analysis::IoRateAccumulator io_rate(out.header.trace_start,
                                      out.header.trace_end);
  std::optional<cache::ReplayOpSink> ops;
  std::vector<trace::RecordSink*> sinks{&sessions, &request_sizes, &io_rate};
  if (options.collect_replay_ops) {
    cache::ReplayOpSinkOptions sink_options;
    sink_options.budget = &budget;
    ops.emplace(std::move(sink_options));
    sinks.push_back(&*ops);
  }
  const trace::StreamMergeStats stats =
      merge(tracer, "trace.merge_all_sinks", *spilled, sinks);
  out.sessions = sessions.take(out.header);
  out.request_sizes = request_sizes.finish();
  out.io_rate = io_rate.finish();
  if (ops.has_value()) out.replay_ops = ops->finish();
  tracer.set_max("trace.peak_rss_mb", peak_rss_mb());

  const trace::SpillWriterStats& writer = spilled->write_stats();
  tracer.add("trace.merge_read_s", stats.read_ms / 1000.0);
  tracer.add("trace.spill_write_s",
             (writer.write_ms + out.replay_ops.write_ms()) / 1000.0);
  tracer.add("trace.append_stall_s", writer.append_stall_ms / 1000.0);
  tracer.add("trace.spill_bytes_written",
             static_cast<double>(writer.disk_bytes +
                                 out.replay_ops.disk_bytes()));
  tracer.add("trace.spill_bytes_read",
             static_cast<double>(spilled->disk_payload_bytes() +
                                 stats.disk_bytes_read));
  tracer.add("trace.blocks_mem", static_cast<double>(writer.mem_blocks));
  tracer.add("trace.blocks_disk", static_cast<double>(writer.disk_blocks));
  tracer.add("analysis.sessions",
             static_cast<double>(out.sessions.sessions().size()));
  tracer.add("cache.replay_ops", static_cast<double>(out.replay_ops.count()));

  if (options.price_sinks) {
    (void)merge(tracer, "trace.merge", *spilled, {});
    {
      analysis::SessionAccumulator alone;
      (void)merge(tracer, "analysis.sessions_merge", *spilled, {&alone});
      (void)alone.take(out.header);
    }
    {
      analysis::RequestSizeAccumulator sizes;
      analysis::IoRateAccumulator rate(out.header.trace_start,
                                       out.header.trace_end);
      (void)merge(tracer, "analysis.rate_sinks_merge", *spilled,
                  {&sizes, &rate});
      (void)sizes.finish();
      (void)rate.finish();
    }
    if (options.collect_replay_ops) {
      trace::SpillBudget ops_budget(config.spill_budget_mb * kMiB);
      cache::ReplayOpSinkOptions sink_options;
      sink_options.budget = &ops_budget;
      cache::ReplayOpSink alone(std::move(sink_options));
      (void)merge(tracer, "cache.ops_sink_merge", *spilled, {&alone});
      result.priced_ops = alone.finish();
    }
  }
  return result;
}

void count_sweep(Tracer& tracer, const SweepResults& sweep) {
  for (const auto& r : sweep.compute) {
    tracer.add("cache.compute_reads", static_cast<double>(r.reads));
    tracer.add("cache.compute_hits", static_cast<double>(r.hits));
  }
  for (const auto& r : sweep.io) {
    tracer.add("cache.io_requests", static_cast<double>(r.requests));
    tracer.add("cache.io_request_hits", static_cast<double>(r.request_hits));
    tracer.add("cache.io_block_accesses",
               static_cast<double>(r.block_accesses));
    tracer.add("cache.io_block_hits", static_cast<double>(r.block_hits));
  }
}

/// nas-study, nas-replay and checkpoint-sweep.
Identity traced_single(Tracer& tracer, Workload w, std::uint64_t seed,
                       const std::string& log) {
  Identity identity;
  const bool nas = w != Workload::kCheckpointSweep;
  std::optional<util::ThreadPool> pool;
  if (pool_threads(w) > 1) {
    const auto scope = tracer.span("bench.pool_build");
    pool.emplace(pool_threads(w));
  }
  const core::StudyConfig config = study_config(w, seed, log);
  TracedStudyOptions options;
  options.collect_replay_ops = w != Workload::kNasReplay;
  TracedStudy study = traced_study(tracer, config, options);
  core::StreamedStudyOutput& out = study.out;
  identity.digests.push_back(out.trace_digest);
  identity.records = out.records;
  identity.events = out.events_dispatched;
  const std::int64_t block_size = out.header.block_size;
  if (nas) {
    const auto scope = tracer.span("analysis.analyzers");
    identity.analysis = run_analyzers(out.sessions, block_size);
  }

  std::optional<SweepResults> sweep;
  if (options.collect_replay_ops) {
    const std::set<cache::SessionKey> read_only =
        out.sessions.read_only_sessions();
    std::optional<cache::SweepRunner> runner;
    {
      const auto scope = tracer.span("cache.log_build");
      if (pool.has_value()) {
        runner.emplace(std::move(out.replay_ops), read_only, *pool);
      } else {
        runner.emplace(std::move(out.replay_ops), read_only);
      }
    }
    {
      const auto scope = tracer.span("cache.sweep");
      sweep = run_sweep(*runner);
    }
    identity.sweep = fingerprint(*sweep);
    tracer.add("cache.passes",
               static_cast<double>(runner->passes_executed()));
    tracer.set_max("cache.peak_rss_mb", peak_rss_mb());
    count_sweep(tracer, *sweep);

    // Each config subset alone on one thread, from the pricing merge's ops.
    std::optional<cache::SweepRunner> serial;
    {
      const auto scope = tracer.span("cache.serial_log_build");
      serial.emplace(std::move(*study.priced_ops), read_only);
    }
    SweepResults again;
    {
      const auto scope = tracer.span("cache.fig8");
      again.compute = serial->run_compute(fig8_configs());
    }
    for (const IoSubset& subset : io_subsets()) {
      const auto scope = tracer.span(subset.name);
      const auto results = serial->run_io(subset.configs);
      again.io.insert(again.io.end(), results.begin(), results.end());
    }
    CHECK(fingerprint(again) == *identity.sweep,
          "the per-subset serial sweep disagrees with the pooled sweep");
  }
  if (nas) {
    const auto scope = tracer.span("analysis.fidelity");
    const Fidelity fidelity =
        check_fidelity(out.sessions, out.request_sizes, block_size,
                       sweep.has_value() ? &sweep->compute[0] : nullptr);
    identity.fidelity_bands = fidelity.bands;
    identity.fidelity_outside = fidelity.outside;
    tracer.add("analysis.fidelity_outside", fidelity.outside);
  }
  {
    // Every job through the source seam again, outside the engine.
    const auto scope = tracer.span("workload.drain");
    workload::Source& source = *study.source;
    const std::size_t jobs = source.workload().jobs.size();
    for (std::size_t j = 0; j < jobs; ++j) {
      (void)source.start_job(j);
      // The Driver clamps a job to the machine width the same way.
      const std::int32_t ranks = std::min(source.workload().jobs[j].nodes,
                                          config.machine.compute_nodes);
      for (std::int32_t rank = 0; rank < ranks; ++rank) {
        while (source.next(j, rank).kind != workload::OpKind::kEnd) {
        }
      }
      source.end_job(j);
    }
  }
  return identity;
}

Identity traced_campaign(Tracer& tracer, std::uint64_t seed,
                         const std::string& work_dir) {
  const std::vector<core::CampaignStudy> studies = campaign_studies(seed);
  // The studies one at a time first, so the per-study peak RSS counters
  // are not the concurrent campaign's.  core.study_serial_s sums the
  // durations of the core.study_serial spans: each study's run and its
  // summary, which collects the figures.  The extra collect_trace_figures
  // call that prices analysis.figures sits between them, outside.
  std::vector<core::StudySummary> serial;
  for (const auto& study : studies) {
    TracedStudyOptions options;
    options.price_sinks = false;
    std::optional<TracedStudy> traced;
    {
      const auto scope = tracer.span("core.study_serial");
      traced.emplace(traced_study(tracer, study.config, options));
    }
    {
      const auto figures = tracer.span("analysis.figures");
      (void)analysis::collect_trace_figures(traced->out.sessions,
                                            traced->out.request_sizes,
                                            traced->out.header.block_size);
    }
    const auto scope = tracer.span("core.study_serial");
    const auto summarize = tracer.span("core.summarize");
    serial.push_back(core::summarize_streamed_study(
        study.label, study.config, std::move(traced->out), true));
  }
  std::optional<core::CampaignResult> result;
  {
    const auto scope = tracer.span("core.campaign_run");
    result.emplace(core::CampaignRunner(campaign_options()).run(studies));
  }
  {
    const auto scope = tracer.span("core.fold");
    (void)core::aggregate_campaign(result->studies);
    (void)core::fold_figure_envelopes(result->studies);
  }
  {
    const auto scope = tracer.span("core.export");
    const std::string out_dir = work_dir + "/campaign_export";
    std::filesystem::create_directories(out_dir);
    (void)core::export_campaign(*result, out_dir);
  }
  Identity identity;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    CHECK(serial[i].trace_digest == result->studies[i].trace_digest,
          "campaign study ", i, " digest differs from the study run alone");
    identity.digests.push_back(serial[i].trace_digest);
    identity.records += serial[i].records;
    identity.events += serial[i].events_dispatched;
  }
  identity.sweep = fingerprint(serial);
  CHECK(*identity.sweep == fingerprint(result->studies),
        "campaign figures differ from the studies run alone");
  return identity;
}

}  // namespace

std::string run_traced(Workload w, std::uint64_t seed, const std::string& log,
                       const std::string& work_dir) {
  Tracer tracer;
  const HostClock::time_point start = HostClock::now();
  const Identity identity = w == Workload::kNasCampaign
                                ? traced_campaign(tracer, seed, work_dir)
                                : traced_single(tracer, w, seed, log);
  const double wall_s = seconds_between(start, HostClock::now());
  return JsonObject()
      .raw("identity", identity.json())
      .number("wall_s", wall_s)
      .raw("spans", tracer.spans_json())
      .raw("counters", tracer.counters_json())
      .str();
}

}  // namespace perfbench
