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
// figure into DIR.  Both are created before the study runs: an unwritable
// path prints one line and exits 1.  A --scale or --seed that is not a
// number, or a --scale <= 0, prints usage and exits 2.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <system_error>
#include <utility>

#include "core/export.hpp"
#include "core/report.hpp"
#include "core/strided.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  charisma::util::Flags flags(argc, argv, {"scale", "seed", "out", "export"});
  const std::optional<double> scale_flag = flags.try_get_double("scale", 0.2);
  const std::optional<std::int64_t> seed_flag = flags.try_get_int("seed", 42);
  if (!scale_flag || *scale_flag <= 0.0 || !seed_flag) {
    std::fprintf(stderr,
                 "usage: trace_and_characterize [--scale=0.2] [--seed=42] "
                 "[--out=trace.chtr] [--export=DIR]\n");
    return 2;
  }
  const double scale = *scale_flag;
  const auto seed = static_cast<std::uint64_t>(*seed_flag);
  const std::string out_path = flags.get("out", "trace.chtr");
  const std::string export_dir = flags.get("export", "figures");
  if (flags.has("out") && !std::ofstream(out_path, std::ios::binary)) {
    std::fprintf(stderr, "trace_and_characterize: cannot write %s: %s\n",
                 out_path.c_str(), std::strerror(errno));
    return 1;
  }
  if (flags.has("export")) {
    std::error_code ec;
    std::filesystem::create_directories(export_dir, ec);
    if (ec) {
      std::fprintf(stderr, "trace_and_characterize: cannot create %s: %s\n",
                   export_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

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

  try {
    if (flags.has("out")) {
      spilled.save(out_path);
      std::printf("raw trace written to %s\n", out_path.c_str());
    }
    if (flags.has("export")) {  // last: the export consumes the study's ops
      const auto result =
          charisma::core::export_figures(std::move(study), export_dir);
      std::printf("%d figure series written to %s (plot with gnuplot %s)\n",
                  result.files_written, export_dir.c_str(),
                  result.plot_script.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_and_characterize: %s\n", e.what());
    return 1;
  }
  return 0;
}
