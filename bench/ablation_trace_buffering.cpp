// Ablation C: the tracing instrumentation's own perturbation (paper §3.1).
// Compares per-node 4 KB trace buffering against the rejected design of one
// collector message per event, and checks the "<1% of total traffic" claim.
#include "common.hpp"

#include <optional>

namespace charisma::bench {
namespace {

void reproduce() {
  auto& ctx = Context::instance();
  const auto& study = ctx.study();

  // The buffered run already happened inside the study; the unbuffered
  // message count equals the record count by construction.
  const double reduction =
      study.records > 0
          ? 1.0 - static_cast<double>(study.collector_messages) /
                      static_cast<double>(study.records)
          : 0.0;
  const double traffic_share =
      study.user_bytes_moved > 0
          ? static_cast<double>(study.trace_bytes) /
                static_cast<double>(study.user_bytes_moved)
          : 0.0;

  util::Table t({"metric", "value"});
  t.add_row({"event records generated", std::to_string(study.records)});
  t.add_row({"collector messages (4 KB node buffers)",
             std::to_string(study.collector_messages)});
  t.add_row({"collector messages (unbuffered design)",
             std::to_string(study.records)});
  t.add_row({"trace bytes written",
             util::format_bytes(study.trace_bytes)});
  t.add_row({"total disk traffic",
             util::format_bytes(study.user_bytes_moved)});
  std::printf("%s\n", t.render().c_str());

  Comparison cmp("Ablation C: trace-collection perturbation (S3.1)");
  cmp.row("message reduction from node buffering", ">90%",
          util::fmt(reduction * 100.0) + "%");
  cmp.row("trace share of total traffic", "<1%",
          util::fmt(traffic_share * 100.0, 2) + "%");
  cmp.print();
}

/// Times the instrumentation hot path: appending one record through the
/// buffered collector (the per-CFS-call overhead the paper worried about).
void BM_CollectorAppend(benchmark::State& state) {
  sim::Engine engine;
  util::Rng rng(1);
  ipsc::Machine machine(engine, ipsc::MachineConfig::nas_ames(), rng);
  trace::CollectorParams params;
  params.buffer_on_nodes = state.range(0) != 0;
  // A fresh collector every 100000 records keeps memory bounded; each one
  // keeps its blocks in the spill's memory tier, as a study does.
  std::optional<trace::SpillBudget> budget;
  std::optional<trace::Collector> collector;
  const auto fresh_collector = [&] {
    collector.reset();
    budget.emplace(std::int64_t{64} << 20);
    collector.emplace(machine, params);
    trace::SpillWriterOptions options;
    options.budget = &*budget;
    collector->start_spilling(trace::SpillTarget::anonymous_in(""), options);
  };
  fresh_collector();
  trace::Record r;
  r.kind = trace::EventKind::kRead;
  r.job = 1;
  r.file = 1;
  r.bytes = 100;
  std::int64_t i = 0;
  for (auto _ : state) {
    r.node = static_cast<cfs::NodeId>(i++ % 128);
    collector->append(r);
    if (i % 100000 == 0) {
      state.PauseTiming();
      fresh_collector();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollectorAppend)->Arg(1)->Arg(0);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Ablation C (trace buffering)", charisma::bench::reproduce)
