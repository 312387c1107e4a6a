// §4.2: the file population — how many files, of which access classes,
// how many temporary, and bytes per file.
#include "common.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  auto& ctx = Context::instance();
  const auto result = analysis::analyze_file_population(ctx.store());
  std::printf("%s\n", result.render().c_str());

  namespace paper = analysis::paper;
  const double s = ctx.scale();
  Comparison cmp("S4.2: file population (counts scale with --scale)");
  cmp.row("files opened", paper::kFilesOpened * s,
          static_cast<double>(result.sessions), 0);
  cmp.percent_row("write-only share",
                  static_cast<double>(paper::kWriteOnlyFiles) /
                      paper::kFilesOpened,
                  static_cast<double>(result.write_only) /
                      static_cast<double>(result.sessions));
  cmp.percent_row("read-only share",
                  static_cast<double>(paper::kReadOnlyFiles) /
                      paper::kFilesOpened,
                  static_cast<double>(result.read_only) /
                      static_cast<double>(result.sessions));
  cmp.percent_row("read-write share",
                  static_cast<double>(paper::kReadWriteFiles) /
                      paper::kFilesOpened,
                  static_cast<double>(result.read_write) /
                      static_cast<double>(result.sessions));
  cmp.percent_row("opened but untouched",
                  static_cast<double>(paper::kUntouchedFiles) /
                      paper::kFilesOpened,
                  static_cast<double>(result.untouched) /
                      static_cast<double>(result.sessions));
  cmp.percent_row("temporary files", paper::kTemporaryOpenFraction,
                  result.temporary_fraction);
  cmp.row("mean bytes read per read file",
          util::format_bytes(
              static_cast<std::int64_t>(paper::kMeanBytesReadPerFile)),
          util::format_bytes(static_cast<std::int64_t>(
              result.mean_bytes_read_per_read_file)));
  cmp.row("mean bytes written per write file",
          util::format_bytes(
              static_cast<std::int64_t>(paper::kMeanBytesWrittenPerFile)),
          util::format_bytes(static_cast<std::int64_t>(
              result.mean_bytes_written_per_write_file)));
  cmp.print();
}

void BM_FilePopulationAnalysis(benchmark::State& state) {
  const auto& store = Context::instance().store();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_file_population(store));
  }
}
BENCHMARK(BM_FilePopulationAnalysis)->Unit(benchmark::kMicrosecond);

/// The SessionStore construction itself is the §4 workhorse; time it as
/// the pipeline pays for it: one merge into the session detector.
void BM_SessionStoreBuild(benchmark::State& state) {
  const trace::SpilledTrace& trace = Context::instance().trace();
  for (auto _ : state) {
    analysis::SessionAccumulator sessions;
    (void)trace::stream_postprocess(trace, {&sessions});
    const analysis::SessionStore store = sessions.take(trace.header);
    benchmark::DoNotOptimize(store.sessions().size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(trace.record_count()) * state.iterations());
}
BENCHMARK(BM_SessionStoreBuild)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("S4.2 (file population)", charisma::bench::reproduce)
