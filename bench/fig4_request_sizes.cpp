// Figure 4: CDF of reads (and writes) by request size, by count and by
// data volume.
#include "common.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  const analysis::RequestSizeResult& result =
      Context::instance().study().request_sizes;
  std::printf("%s\n", result.render().c_str());

  std::printf("reads-by-count series:\n%s\n",
              result.reads_by_count
                  .render_series(util::log_spaced(100, 4e6, 2))
                  .c_str());
  std::printf("reads-by-bytes series:\n%s\n",
              result.reads_by_bytes
                  .render_series(util::log_spaced(100, 4e6, 2))
                  .c_str());

  Comparison cmp("Figure 4: request sizes");
  cmp.percent_row("reads under 4000 B", analysis::paper::kSmallReadFraction,
                  result.small_read_fraction);
  cmp.percent_row("data moved by those reads",
                  analysis::paper::kSmallReadDataFraction,
                  result.small_read_data_fraction);
  cmp.percent_row("writes under 4000 B",
                  analysis::paper::kSmallWriteFraction,
                  result.small_write_fraction);
  cmp.percent_row("data moved by those writes",
                  analysis::paper::kSmallWriteDataFraction,
                  result.small_write_data_fraction);
  cmp.row("spikes", "counts: small sizes; data: 1 MB (one job)",
          "4 KB write share " +
              util::fmt((result.writes_by_count.at(4096) -
                         result.writes_by_count.at(4095)) *
                        100.0) +
              "%, 1 MB data share " +
              util::fmt((result.reads_by_bytes.at(1 << 20) -
                         result.reads_by_bytes.at((1 << 20) - 1)) *
                        100.0) +
              "%");
  cmp.print();
}

/// The analysis as the pipeline pays for it: one merge into the sink.
void BM_RequestSizeAnalysis(benchmark::State& state) {
  const trace::SpilledTrace& trace = Context::instance().trace();
  for (auto _ : state) {
    analysis::RequestSizeAccumulator sizes;
    (void)trace::stream_postprocess(trace, {&sizes});
    benchmark::DoNotOptimize(sizes.finish());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(trace.record_count()) * state.iterations());
}
BENCHMARK(BM_RequestSizeAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Figure 4 (request sizes)", charisma::bench::reproduce)
