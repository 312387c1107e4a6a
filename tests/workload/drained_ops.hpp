// The reference count for the Driver and Source-seam op-conservation tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "workload/source.hpp"

namespace charisma::workload {

/// Ops a fresh Source of `spec` yields when every job is drained outside
/// the engine, each job's ranks clamped to `compute_nodes` as the Driver
/// clamps them.
[[nodiscard]] inline std::uint64_t drained_ops(const SourceSpec& spec,
                                               const WorkloadConfig& config,
                                               std::int32_t compute_nodes) {
  const std::unique_ptr<Source> source = load_source(spec, config);
  const auto& jobs = source->workload().jobs;
  std::uint64_t ops = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::int32_t ranks = std::min(jobs[j].nodes, compute_nodes);
    (void)source->start_job(j);
    for (std::int32_t rank = 0; rank < ranks; ++rank) {
      while (source->next(j, rank).kind != OpKind::kEnd) ++ops;
    }
    source->end_job(j);
  }
  return ops;
}

}  // namespace charisma::workload
