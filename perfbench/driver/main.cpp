// perfbench_driver: runs one iteration of one benchmark workload through
// the library's public entry points and prints one JSON object on stdout.
// run.py builds it, calls it once per iteration, and does the aggregation
// and output checks.
//
//   perfbench_driver <mode> --workload=<name> --seed=<n> --work=<dir>
//                    [--log=<chwl path>]
//   perfbench_driver size --workload=<name> --seeds=<a,b,...>
//
//   size       ops, traced data ops and their bytes of the workload at
//              each of --seeds=a,b,...
//   export     writes nas-replay's chwl input for --seed to --log
//   reference  digests the output checks compare against
//   timed      the set-up phase repeated (one time per repeat), then one
//              untraced iteration: its wall and CPU seconds, peak RSS and
//              outputs
//   traced     one traced iteration: spans, counters and the outputs
//
// Spill files go to $TMPDIR; run.py points it into the work directory.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "workloads.hpp"

namespace {

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> items;
  std::size_t from = 0;
  while (from < list.size()) {
    const std::size_t comma = std::min(list.find(',', from), list.size());
    items.push_back(list.substr(from, comma - from));
    from = comma + 1;
  }
  return items;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    util::Flags flags(argc, argv, {"workload", "seed", "seeds", "work", "log"});
    const auto& rest = flags.remaining();
    const std::optional<Workload> w = parse_workload(flags.get("workload", ""));
    const bool size_mode = rest.size() == 2 && std::string(rest[1]) == "size";
    if (rest.size() != 2 || !w.has_value() ||
        !flags.has(size_mode ? "seeds" : "seed")) {
      std::fprintf(stderr,
                   "usage: perfbench_driver "
                   "export|reference|timed|traced --workload=<name> "
                   "--seed=<n> --work=<dir> [--log=<path>]\n"
                   "       perfbench_driver size --workload=<name> "
                   "--seeds=<a,b,...>\n");
      return 2;
    }
    const std::string mode = rest[1];
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
    const std::string log = flags.get("log", "");
    const std::string work = flags.get("work", ".");
    std::string json;
    if (mode == "size") {
      std::vector<std::uint64_t> seeds;
      for (const std::string& item : split(flags.get("seeds", ""))) {
        seeds.push_back(std::stoull(item));
      }
      std::string ops = "[";
      std::string data_ops = "[";
      std::string data_bytes = "[";
      for (const WorkloadSize& size : workload_sizes(*w, seeds)) {
        const char* sep = ops.size() > 1 ? ", " : "";
        ops += sep + std::to_string(size.ops);
        data_ops += sep + std::to_string(size.traced_data_ops);
        data_bytes += sep + std::to_string(size.traced_data_bytes);
      }
      json = JsonObject()
                 .raw("ops", ops + "]")
                 .raw("traced_data_ops", data_ops + "]")
                 .raw("traced_data_bytes", data_bytes + "]")
                 .str();
    } else if (mode == "export") {
      json = export_log(seed, log);
    } else if (mode == "reference") {
      json = reference_digests(*w, seed);
    } else if (mode == "timed") {
      json = run_timed(*w, seed, log, work);
    } else if (mode == "traced") {
      json = run_traced(*w, seed, log, work);
    } else {
      std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
      return 2;
    }
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
