// Figure 7: byte- and block-level sharing between nodes in concurrently
// opened files.
#include "common.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  const auto result = analysis::analyze_sharing(
      Context::instance().store(),
      Context::instance().study().header.block_size);
  std::printf("%s\n", result.render().c_str());

  Comparison cmp("Figure 7: sharing");
  cmp.percent_row("read-only files 100% byte-shared",
                  analysis::paper::kReadOnlyFullyByteShared,
                  result.read_only.fully_byte_shared);
  cmp.percent_row("write-only files with no bytes shared",
                  analysis::paper::kWriteOnlyNoBytesShared,
                  result.write_only.no_bytes_shared);
  cmp.percent_row("read-write files 100% byte-shared",
                  analysis::paper::kReadWriteFullyByteShared,
                  result.read_write.fully_byte_shared);
  cmp.percent_row("read-write files 100% block-shared",
                  analysis::paper::kReadWriteFullyBlockShared,
                  result.read_write.fully_block_shared);
  cmp.row("implication", "strong interprocess spatial locality",
          util::fmt(result.read_only.fully_block_shared * 100.0) +
              "% of shared RO files 100% block-shared");
  cmp.print();
}

void BM_SharingAnalysis(benchmark::State& state) {
  const auto& store = Context::instance().store();
  const auto bs = Context::instance().study().header.block_size;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::analyze_sharing(store, bs));
  }
}
BENCHMARK(BM_SharingAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Figure 7 (file sharing)", charisma::bench::reproduce)
