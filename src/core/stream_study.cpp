#include "core/stream_study.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace charisma::core {

trace::SpilledTrace stream_study(const StudyConfig& config,
                                 const StreamOptions& options,
                                 StreamedStudyOutput& out,
                                 const std::vector<trace::RecordSink*>& sinks) {
  // One shared memory-tier pool for both spills (trace blocks and replay-op
  // chunks): reservations are never returned, so peak RSS is bounded by the
  // streaming window plus this budget no matter how the two spills split it.
  trace::SpillBudget budget(config.spill_budget_mb * (std::int64_t{1} << 20));

  trace::SpilledTrace spilled;
  {
    sim::Engine engine;
    // The machine's clock skews must not depend on the workload draw.
    util::Rng machine_rng(config.workload.seed ^ 0xC10CC10CULL);
    ipsc::Machine machine(engine, config.machine, machine_rng);
    cfs::Runtime runtime(machine, config.runtime);
    trace::Collector collector(machine, config.collector);
    // The spill writer copies the header when spilling starts, so the
    // annotation must be final before then.
    collector.annotate(config.workload.seed, kStudyTraceLabel);
    trace::SpillWriterOptions wopts;
    wopts.budget = &budget;
    wopts.async = options.async_spill;
    collector.start_spilling(
        trace::SpillTarget::anonymous_in(config.spill_dir), wopts);

    // The source draws from its own workload seed; nothing it does can shift
    // the machine's clock skews above.
    const std::unique_ptr<workload::Source> source =
        workload::load_source(config.source, config.workload);
    out.workload = source->workload();
    workload::Driver driver(machine, runtime, collector, *source);
    driver.run();

    out.jobs = driver.results();
    out.records = collector.records_seen();
    out.collector_messages = collector.messages_to_collector();
    out.trace_bytes = collector.trace_bytes_written();
    out.total_ops = driver.total_ops();
    out.events_dispatched = engine.dispatched_events();
    out.sim_end = engine.now();
    for (int d = 0; d < machine.io_nodes(); ++d) {
      out.user_bytes_moved += machine.disk(d).bytes_moved();
    }
    spilled = collector.take_spilled();
  }  // the simulated machine is freed before the merge, which needs none of it

  util::Stopwatch digest_sw;
  out.trace_digest = spilled.digest();
  const double digest_ms = digest_sw.elapsed_ms();

  merge_study(spilled, options, budget, config.spill_dir, out, sinks);
  out.spill.digest_ms = digest_ms;
  // digest() re-reads every disk payload byte once, on top of the merge.
  out.spill.spill_bytes_read += spilled.disk_payload_bytes();
  out.spill.spill_budget_mb = config.spill_budget_mb;

#if CHARISMA_DCHECK_IS_ON
  // Conservation across the collector, the spills and the merge, audited in
  // debug builds (StreamingBudgetMatrix holds the same laws in every build).
  // Job events are one-record service-node blocks, not collector messages.
  const auto node_blocks = static_cast<std::uint64_t>(
      std::count_if(spilled.blocks.begin(), spilled.blocks.end(),
                    [](const trace::SpillBlock& b) {
                      return b.node != trace::kServiceNode;
                    }));
  const trace::SpillWriterStats& wstats = spilled.write_stats();
  DCHECK(out.records == spilled.record_count() &&
             out.streamed_records == out.records,
         "conservation law: every collected record is spilled and merged "
         "once: ",
         out.records, " collected, ", spilled.record_count(), " spilled, ",
         out.streamed_records, " merged");
  DCHECK(node_blocks == out.collector_messages,
         "conservation law: one compute-node block per collector message: ",
         node_blocks, " blocks, ", out.collector_messages, " messages");
  DCHECK(wstats.mem_blocks + wstats.disk_blocks == spilled.blocks.size(),
         "conservation law: every trace block lands in exactly one tier: ",
         wstats.mem_blocks, " in memory + ", wstats.disk_blocks, " on disk, ",
         spilled.blocks.size(), " blocks");
  DCHECK(out.spill.ops_chunks_in_memory + out.spill.ops_chunks_on_disk ==
             out.replay_ops.chunks().size(),
         "conservation law: every replay-op chunk lands in exactly one tier: ",
         out.spill.ops_chunks_in_memory, " in memory + ",
         out.spill.ops_chunks_on_disk, " on disk, ",
         out.replay_ops.chunks().size(), " chunks");
#endif
  return spilled;
}

void merge_study(const trace::SpilledTrace& spilled,
                 const StreamOptions& options, trace::SpillBudget& budget,
                 const std::string& spill_dir, StreamedStudyOutput& out,
                 const std::vector<trace::RecordSink*>& sinks) {
  out.header = spilled.header;
  // One merge pass feeds every consumer; per-sink state is bounded
  // (sessions, histograms, a timeline, one op chunk), never the trace.
  analysis::SessionAccumulator sessions;
  std::optional<analysis::RequestSizeAccumulator> request_sizes;
  std::optional<analysis::IoRateAccumulator> io_rate;
  std::optional<cache::ReplayOpSink> ops;
  std::vector<trace::RecordSink*> all_sinks{&sessions};
  if (options.collect_rate_figures) {
    request_sizes.emplace();
    io_rate.emplace(out.header.trace_start, out.header.trace_end);
    all_sinks.push_back(&*request_sizes);
    all_sinks.push_back(&*io_rate);
  }
  if (options.collect_replay_ops) {
    cache::ReplayOpSinkOptions oopts;
    oopts.budget = &budget;
    oopts.dir = spill_dir;
    ops.emplace(std::move(oopts));
    all_sinks.push_back(&*ops);
  }
  all_sinks.insert(all_sinks.end(), sinks.begin(), sinks.end());
  trace::StreamMergeStats merge_stats;
  trace::StreamMergeOptions mopts;
  mopts.stats = &merge_stats;
  out.streamed_records = trace::stream_postprocess(spilled, all_sinks, mopts);

  out.sessions = sessions.take(out.header);
  if (request_sizes.has_value()) out.request_sizes = request_sizes->finish();
  if (io_rate.has_value()) out.io_rate = io_rate->finish();
  if (ops.has_value()) out.replay_ops = ops->finish();

  const trace::SpillWriterStats& wstats = spilled.write_stats();
  out.spill.spill_write_ms = wstats.write_ms + out.replay_ops.write_ms();
  out.spill.spill_read_ms = merge_stats.read_ms;
  out.spill.sink_ms = merge_stats.sink_ms;
  out.spill.append_stall_ms = wstats.append_stall_ms;
  out.spill.spill_bytes_written =
      wstats.disk_bytes + out.replay_ops.disk_bytes();
  // Sweep-pass re-reads accrue later via SweepRunner.
  out.spill.spill_bytes_read = merge_stats.disk_bytes_read;
  out.spill.trace_blocks_in_memory = wstats.mem_blocks;
  out.spill.trace_blocks_on_disk = wstats.disk_blocks;
  out.spill.ops_chunks_in_memory = out.replay_ops.mem_chunks();
  out.spill.ops_chunks_on_disk = out.replay_ops.disk_chunks();
}

StreamedStudyOutput run_streamed_study(const StudyConfig& config,
                                       const StreamOptions& options) {
  StreamedStudyOutput out;
  // Dropping the raw trace here unlinks its spill.
  (void)stream_study(config, options, out);
  return out;
}

}  // namespace charisma::core
