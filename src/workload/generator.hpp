// Synthetic production-workload generator.
//
// Produces the arrival stream of JobSpecs substituting for the NASA Ames
// production mix, plus the pool of pre-existing input files jobs read
// (files created before tracing started, as in the paper's environment).
// Scripts are compiled per job, lazily, by build_scripts().
//
// Calibration notes (how archetypes map to paper findings) live in
// generator.cpp next to each builder; DESIGN.md §4 lists the targets.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/config.hpp"
#include "workload/script.hpp"

namespace charisma::workload {

/// A file that exists before tracing begins.
struct PrePopFile {
  std::string path;
  std::int64_t bytes = 0;
};

struct GeneratedWorkload {
  WorkloadConfig config;
  std::vector<PrePopFile> inputs;
  std::vector<JobSpec> jobs;  // sorted by arrival time
  util::MicroSec window = 0;  // tracing window length
};

/// Draws the whole workload.  Deterministic in (config.seed, config).
[[nodiscard]] GeneratedWorkload generate(const WorkloadConfig& config);

/// Compiles a job into per-node scripts.  Deterministic in spec.seed.
[[nodiscard]] JobScripts build_scripts(const JobSpec& spec,
                                       const GeneratedWorkload& workload);

}  // namespace charisma::workload
