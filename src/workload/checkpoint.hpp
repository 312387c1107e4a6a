// Daly-interval checkpoint-restart workload source (the "checkpoint"
// method).
//
// Models the classic defensive-I/O archetype catalogued alongside CODES's
// checkpoint generator: an application of `nodes` ranks computes for Daly's
// optimum checkpoint interval, barriers, and dumps an aggregate
// `size_tib` image split evenly across per-rank files in `chunk_bytes`
// requests, repeating until `runtime_hours` of (scaled) runtime is covered.
// The interval comes from Daly's higher-order estimate of the optimum
// checkpoint interval; the plan below is exposed so property tests can pin
// its invariants (interval monotone in MTTI, total bytes = image size x
// dump count) without running a simulation.
#pragma once

#include <cstdint>

#include "workload/config.hpp"
#include "workload/generator.hpp"

namespace charisma::workload {

/// Daly's higher-order optimum checkpoint interval, seconds.  `dump` is the
/// time one checkpoint takes (size/bw), `mtti` the mean time to interrupt;
/// both seconds.  For dump >= 2*mtti the estimate degenerates to mtti.
/// Nondecreasing in mtti for any fixed dump >= 0.
[[nodiscard]] double daly_interval_seconds(double dump, double mtti);

/// Bytes of an aggregate checkpoint image of `size_tib` TiB, rounded to the
/// nearest byte: below 1 when the image rounds to nothing.
[[nodiscard]] std::int64_t checkpoint_image_bytes(double size_tib);

/// The integer schedule a CheckpointConfig compiles to.
struct CheckpointPlan {
  double dump_seconds = 0;      // delta = size / bandwidth
  double interval_seconds = 0;  // tau = Daly optimum compute interval
  std::int64_t dumps = 0;       // floor(runtime / (tau + delta))
  std::int64_t image_bytes = 0; // aggregate bytes per dump
  std::int32_t nodes = 1;       // writer ranks
  /// Sum over ranks of one dump's per-rank bytes; == image_bytes (rank 0
  /// absorbs the division remainder).
  [[nodiscard]] std::int64_t bytes_per_rank(std::int32_t rank) const noexcept;
};

/// Derives the schedule.  `scale` multiplies the runtime (CI smoke runs);
/// a zero/negative scaled runtime yields zero dumps.
[[nodiscard]] CheckpointPlan plan_checkpoints(const CheckpointConfig& config,
                                              double scale);

/// The single-job arrival stream for the checkpoint source.  Deterministic
/// in (config.seed, config).
[[nodiscard]] GeneratedWorkload build_checkpoint_workload(
    const WorkloadConfig& config);

/// Compiles the checkpoint job's per-rank scripts: per dump, a tau-long
/// compute think on a barrier, then open/chunked-writes/close of the rank's
/// slice.  Deterministic in (spec.seed, config); the seed only skews rank
/// start-up (SPMD ranks never start in lockstep).
[[nodiscard]] JobScripts build_checkpoint_scripts(const JobSpec& spec,
                                                  const CheckpointConfig& config,
                                                  double scale);

}  // namespace charisma::workload
