#include "workload/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace charisma::workload {

using util::MicroSec;

double daly_interval_seconds(double dump, double mtti) {
  CHECK(dump >= 0 && mtti > 0, "daly interval needs dump >= 0, mtti > 0; got ",
        dump, ", ", mtti);
  if (dump >= 2.0 * mtti) return mtti;
  // J. T. Daly's higher-order estimate of the optimum checkpoint interval:
  //   tau = sqrt(2 d M) [1 + (1/3) sqrt(d / 2M) + (1/9)(d / 2M)] - d
  const double x = dump / (2.0 * mtti);
  const double tau =
      std::sqrt(2.0 * dump * mtti) *
          (1.0 + std::sqrt(x) / 3.0 + x / 9.0) -
      dump;
  return std::max(tau, 0.0);
}

std::int64_t CheckpointPlan::bytes_per_rank(std::int32_t rank) const noexcept {
  if (nodes <= 0 || rank < 0 || rank >= nodes) return 0;
  const std::int64_t share = image_bytes / nodes;
  return rank == 0 ? share + image_bytes % nodes : share;
}

std::int64_t checkpoint_image_bytes(double size_tib) {
  return static_cast<std::int64_t>(
      std::llround(size_tib * 1024.0 * static_cast<double>(util::kGiB)));
}

CheckpointPlan plan_checkpoints(const CheckpointConfig& config, double scale) {
  CHECK(config.size_tib > 0, "--chkpoint-size must be positive, got ",
        config.size_tib);
  CHECK(config.bw_gib_s > 0, "--chkpoint-bw must be positive, got ",
        config.bw_gib_s);
  CHECK(config.mtti_hours > 0, "--chkpoint-mtti must be positive, got ",
        config.mtti_hours);
  CHECK(config.nodes >= 1, "checkpoint nodes must be >= 1, got ",
        config.nodes);
  CHECK(config.chunk_bytes >= 1, "checkpoint chunk must be >= 1 byte, got ",
        config.chunk_bytes);
  CheckpointPlan plan;
  plan.nodes = config.nodes;
  plan.image_bytes = checkpoint_image_bytes(config.size_tib);
  CHECK(plan.image_bytes >= 1, "checkpoint image rounds to zero bytes");
  plan.dump_seconds =
      static_cast<double>(plan.image_bytes) /
      (config.bw_gib_s * static_cast<double>(util::kGiB));
  plan.interval_seconds =
      daly_interval_seconds(plan.dump_seconds, config.mtti_hours * 3600.0);
  const double runtime_seconds =
      std::max(config.runtime_hours, 0.0) * 3600.0 * std::max(scale, 0.0);
  const double cycle = plan.interval_seconds + plan.dump_seconds;
  plan.dumps = cycle > 0
                   ? static_cast<std::int64_t>(runtime_seconds / cycle)
                   : 0;
  return plan;
}

GeneratedWorkload build_checkpoint_workload(const WorkloadConfig& config) {
  const CheckpointPlan plan = plan_checkpoints(config.checkpoint, config.scale);
  GeneratedWorkload w;
  w.config = config;
  w.window = static_cast<MicroSec>(
      std::llround(std::max(config.checkpoint.runtime_hours, 0.0) *
                   std::max(config.scale, 0.0) *
                   static_cast<double>(util::kHour)));

  JobSpec spec;
  spec.job = 1;
  spec.arrival = 0;
  spec.nodes = plan.nodes;
  spec.traced = true;
  spec.archetype = Archetype::kCheckpointWrite;
  spec.params.file_bytes = plan.bytes_per_rank(0);
  spec.params.chunk_bytes = config.checkpoint.chunk_bytes;
  spec.params.snapshots = static_cast<std::int32_t>(
      std::min<std::int64_t>(plan.dumps, 1 << 30));
  util::Rng seeder(config.seed);
  spec.seed = seeder.next();
  w.jobs.push_back(spec);
  return w;
}

JobScripts build_checkpoint_scripts(const JobSpec& spec,
                                    const CheckpointConfig& config,
                                    double scale) {
  const CheckpointPlan plan = plan_checkpoints(config, scale);
  JobScripts scripts;
  scripts.nodes.resize(static_cast<std::size_t>(spec.nodes));
  const auto interval_usec = static_cast<MicroSec>(
      std::llround(plan.interval_seconds * 1e6));

  util::Rng job_rng(spec.seed);
  for (std::int32_t rank = 0; rank < spec.nodes; ++rank) {
    util::Rng rng = job_rng.fork();
    auto& ops = scripts.nodes[static_cast<std::size_t>(rank)].ops;
    const std::int64_t rank_bytes = plan.bytes_per_rank(rank);
    if (plan.dumps == 0) continue;
    // SPMD start-up skew: ranks reach their first compute phase a few
    // milliseconds apart, so the dump pattern is seed-sensitive.
    Op skew;
    skew.kind = OpKind::kThink;
    skew.think = static_cast<MicroSec>(rng.uniform(10 * util::kMillisecond));
    ops.push_back(skew);
    for (std::int64_t dump = 0; dump < plan.dumps; ++dump) {
      // Compute for Daly's interval, then line up: every rank dumps the
      // same epoch together.
      Op barrier;
      barrier.kind = OpKind::kBarrier;
      barrier.think = interval_usec;
      ops.push_back(barrier);

      const std::int32_t path =
          static_cast<std::int32_t>(scripts.paths.size());
      scripts.paths.push_back("ckpt/r" + std::to_string(rank) + ".d" +
                              std::to_string(dump));
      Op open;
      open.kind = OpKind::kOpen;
      open.path = path;
      open.flags = cfs::kWrite | cfs::kCreate | cfs::kTruncate;
      open.mode = IoMode::kIndependent;
      ops.push_back(open);
      for (std::int64_t done = 0; done < rank_bytes;) {
        Op write;
        write.kind = OpKind::kWrite;
        write.path = path;
        write.bytes = std::min<std::int64_t>(config.chunk_bytes,
                                             rank_bytes - done);
        ops.push_back(write);
        done += write.bytes;
      }
      Op close;
      close.kind = OpKind::kClose;
      close.path = path;
      ops.push_back(close);
    }
  }
  return scripts;
}

}  // namespace charisma::workload
