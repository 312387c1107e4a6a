#include "core/study.hpp"

#include <memory>

namespace charisma::core {

std::optional<TraceMode> parse_trace_mode(const std::string& name) {
  if (name == "streaming") return TraceMode::kStreaming;
  if (name == "materialized") return TraceMode::kMaterialized;
  return std::nullopt;
}

StudyOutput run_study(const StudyConfig& config) {
  sim::Engine engine;
  // The machine's clock skews must not depend on the workload draw.
  util::Rng machine_rng(config.workload.seed ^ 0xC10CC10CULL);
  ipsc::Machine machine(engine, config.machine, machine_rng);
  cfs::Runtime runtime(machine, config.runtime);
  trace::Collector collector(machine, config.collector);

  StudyOutput out;
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
  out.raw = collector.take_trace();
  out.raw.header.seed = config.workload.seed;
  out.raw.header.label = kStudyTraceLabel;
  out.sorted = trace::postprocess(out.raw);
  return out;
}

StudyOutput run_study_at_scale(double scale, std::uint64_t seed) {
  StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return run_study(config);
}

}  // namespace charisma::core
