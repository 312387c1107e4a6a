// Example: the full CHARISMA methodology end to end.
//
// Generates the synthetic NAS workload, runs it through the simulated
// iPSC/860 + instrumented CFS, collects and postprocesses the trace, and
// prints the complete paper-style characterization.
//
//   trace_and_characterize [--scale=0.2] [--seed=42] [--out=trace.chtr]
//                          [--export=DIR]
//
// --out writes the raw binary trace to disk, copied from the spill's own
// encoded bytes (readable back with trace::SpilledTrace::open or the
// charisma_analyze tool); --export writes gnuplot-ready series for every
// figure into DIR.
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/strided.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  charisma::util::Flags flags(argc, argv, {"scale", "seed", "out", "export"});
  const double scale = flags.get_double("scale", 0.2);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  std::printf("running CHARISMA study at scale %.3f (seed %llu)...\n", scale,
              static_cast<unsigned long long>(seed));
  charisma::core::StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  // The collector stamps the trace header with these two values.
  charisma::core::StridedRewriter strided(config.machine.io_nodes,
                                          charisma::util::kBlockSize);
  charisma::core::StreamedStudyOutput study;
  const charisma::trace::SpilledTrace spilled =
      charisma::core::stream_study(config, {}, study, {&strided});
  std::printf("%s",
              charisma::core::full_report(study, strided.finish()).c_str());
  std::printf(
      "\ninstrumentation: %llu records, %llu collector messages, %s of "
      "trace written (%.2f%% of all disk traffic)\n",
      static_cast<unsigned long long>(study.records),
      static_cast<unsigned long long>(study.collector_messages),
      charisma::util::format_bytes(study.trace_bytes).c_str(),
      study.user_bytes_moved > 0
          ? 100.0 * static_cast<double>(study.trace_bytes) /
                static_cast<double>(study.user_bytes_moved)
          : 0.0);

  if (flags.has("out")) {
    const std::string path = flags.get("out", "trace.chtr");
    spilled.save(path);
    std::printf("raw trace written to %s\n", path.c_str());
  }
  if (flags.has("export")) {  // last: the export consumes the study's ops
    const std::string dir = flags.get("export", "figures");
    std::filesystem::create_directories(dir);
    const auto result = charisma::core::export_figures(std::move(study), dir);
    std::printf("%d figure series written to %s (plot with gnuplot %s)\n",
                result.files_written, dir.c_str(),
                result.plot_script.c_str());
  }
  return 0;
}
