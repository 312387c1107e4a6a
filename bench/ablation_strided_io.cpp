// Ablation A (paper §5 recommendation): strided I/O requests.
// Rewrites every per-node request stream into maximal strided requests and
// measures how many requests and I/O-node messages disappear.
#include "common.hpp"

#include "core/strided.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  const trace::SpilledTrace& trace = Context::instance().trace();
  core::StridedRewriter rewriter(trace.header.io_nodes,
                                 trace.header.block_size);
  (void)trace::stream_postprocess(trace, {&rewriter});
  const auto stats = rewriter.finish();
  std::printf("%s\n", stats.render().c_str());

  Comparison cmp("Ablation A: strided requests (S5)");
  cmp.row("claim", "strided requests effectively increase request size",
          "mean requests per stride: " +
              util::fmt(static_cast<double>(stats.original_requests) /
                        static_cast<double>(std::max<std::uint64_t>(
                            stats.strided_requests, 1))));
  cmp.percent_row("request-count reduction", 0.90,  // "(common) regularity"
                  stats.request_reduction());
  cmp.row("I/O-node message reduction", "lower overhead, fewer messages",
          util::fmt(stats.message_reduction() * 100.0) + "%");
  cmp.print();
  std::printf(
      "note: the paper gives no number for this — 90%% stands in for "
      "\"regular request and interval sizes were common\" (Tables 2/3).\n\n");
}

/// The rewrite as the pipeline pays for it: one merge into the sink.
void BM_StridedRewrite(benchmark::State& state) {
  const trace::SpilledTrace& trace = Context::instance().trace();
  for (auto _ : state) {
    core::StridedRewriter rewriter(10, util::kBlockSize);
    (void)trace::stream_postprocess(trace, {&rewriter});
    benchmark::DoNotOptimize(rewriter.finish());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(trace.record_count()) *
                          state.iterations());
}
BENCHMARK(BM_StridedRewrite)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Ablation A (strided I/O)", charisma::bench::reproduce)
