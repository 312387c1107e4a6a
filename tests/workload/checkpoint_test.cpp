// Property tests for the Daly-interval checkpoint-restart source: the
// interval formula's shape, the plan's byte accounting, determinism in
// (seed, config), and NaN-freedom at degenerate configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "workload/checkpoint.hpp"
#include "workload/source.hpp"

namespace charisma::workload {
namespace {

TEST(DalyInterval, MonotoneInMtti) {
  const double dump = 30.0;  // seconds to write one image
  double previous = 0.0;
  for (double mtti_hours = 0.5; mtti_hours <= 64.0; mtti_hours *= 2.0) {
    const double tau = daly_interval_seconds(dump, mtti_hours * 3600.0);
    EXPECT_TRUE(std::isfinite(tau));
    EXPECT_GE(tau, previous) << "mtti " << mtti_hours << "h";
    previous = tau;
  }
  EXPECT_GT(previous, 0.0);
}

TEST(DalyInterval, DegeneratesToMttiForSlowDumps) {
  // dump >= 2*MTTI: checkpointing costs more than it saves; the estimate
  // collapses to the MTTI itself.
  EXPECT_DOUBLE_EQ(daly_interval_seconds(7200.0, 3600.0), 3600.0);
  EXPECT_DOUBLE_EQ(daly_interval_seconds(1e9, 60.0), 60.0);
}

TEST(DalyInterval, ZeroDumpCostMeansZeroInterval) {
  // Free checkpoints: tau = sqrt(0) * (...) - 0 = 0, and nothing NaNs.
  const double tau = daly_interval_seconds(0.0, 3600.0);
  EXPECT_TRUE(std::isfinite(tau));
  EXPECT_DOUBLE_EQ(tau, 0.0);
}

TEST(CheckpointPlan, RankBytesSumToImageBytes) {
  CheckpointConfig config;
  config.nodes = 7;  // odd, so the division has a remainder for rank 0
  const CheckpointPlan plan = plan_checkpoints(config, 1.0);
  std::int64_t total = 0;
  for (std::int32_t rank = 0; rank < plan.nodes; ++rank) {
    total += plan.bytes_per_rank(rank);
  }
  EXPECT_EQ(total, plan.image_bytes);
  EXPECT_GE(plan.bytes_per_rank(0), plan.bytes_per_rank(1));
  EXPECT_EQ(plan.bytes_per_rank(-1), 0);
  EXPECT_EQ(plan.bytes_per_rank(plan.nodes), 0);
}

TEST(CheckpointPlan, ScriptTotalBytesAreImageTimesDumps) {
  WorkloadConfig config;
  config.scale = 1.0;
  config.checkpoint.nodes = 5;
  config.checkpoint.runtime_hours = 0.1;
  config.checkpoint.mtti_hours = 0.5;
  config.checkpoint.size_tib = 0.0002;
  const CheckpointPlan plan = plan_checkpoints(config.checkpoint, config.scale);
  ASSERT_GT(plan.dumps, 0);

  const GeneratedWorkload w = build_checkpoint_workload(config);
  ASSERT_EQ(w.jobs.size(), 1u);
  const JobScripts scripts =
      build_checkpoint_scripts(w.jobs[0], config.checkpoint, config.scale);
  std::int64_t written = 0;
  std::int64_t opens = 0;
  for (const NodeScript& node : scripts.nodes) {
    for (const Op& op : node.ops) {
      if (op.kind == OpKind::kWrite) {
        written += op.bytes;
        EXPECT_LE(op.bytes, config.checkpoint.chunk_bytes);
        EXPECT_GT(op.bytes, 0);
      } else if (op.kind == OpKind::kOpen) {
        ++opens;
      }
    }
  }
  EXPECT_EQ(written, plan.image_bytes * plan.dumps);
  EXPECT_EQ(opens, static_cast<std::int64_t>(plan.nodes) * plan.dumps);
  // One distinct dump file per (rank, dump): nothing is overwritten, so the
  // aggregate defensive-I/O volume really lands on the file system.
  EXPECT_EQ(scripts.paths.size(),
            static_cast<std::size_t>(plan.nodes) *
                static_cast<std::size_t>(plan.dumps));
}

TEST(CheckpointSource, DeterministicInSeedAndConfig) {
  WorkloadConfig config;
  config.seed = 1234;
  config.scale = 1.0;
  config.checkpoint.runtime_hours = 0.02;
  config.checkpoint.mtti_hours = 0.25;
  const GeneratedWorkload a = build_checkpoint_workload(config);
  const GeneratedWorkload b = build_checkpoint_workload(config);
  ASSERT_EQ(a.jobs.size(), 1u);
  EXPECT_EQ(a.jobs[0].seed, b.jobs[0].seed);
  EXPECT_EQ(a.window, b.window);

  const JobScripts sa =
      build_checkpoint_scripts(a.jobs[0], config.checkpoint, config.scale);
  const JobScripts sb =
      build_checkpoint_scripts(b.jobs[0], config.checkpoint, config.scale);
  ASSERT_EQ(sa.nodes.size(), sb.nodes.size());
  for (std::size_t rank = 0; rank < sa.nodes.size(); ++rank) {
    const auto& oa = sa.nodes[rank].ops;
    const auto& ob = sb.nodes[rank].ops;
    ASSERT_EQ(oa.size(), ob.size()) << "rank " << rank;
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].kind, ob[i].kind);
      EXPECT_EQ(oa[i].think, ob[i].think);
      EXPECT_EQ(oa[i].bytes, ob[i].bytes);
      EXPECT_EQ(oa[i].path, ob[i].path);
    }
  }

  // A different workload seed shifts the job seed (and with it the rank
  // start-up skews).
  WorkloadConfig other = config;
  other.seed = 4321;
  const GeneratedWorkload c = build_checkpoint_workload(other);
  EXPECT_NE(a.jobs[0].seed, c.jobs[0].seed);
}

TEST(CheckpointSource, ZeroLengthWindowIsNaNFree) {
  // scale 0 (or runtime 0) must degrade to an empty-but-valid workload:
  // zero dumps, zero window, finite plan, empty scripts — never NaN, never
  // a throw.
  for (const bool zero_scale : {true, false}) {
    WorkloadConfig config;
    config.scale = zero_scale ? 0.0 : 1.0;
    if (!zero_scale) config.checkpoint.runtime_hours = 0.0;
    const CheckpointPlan plan =
        plan_checkpoints(config.checkpoint, config.scale);
    EXPECT_TRUE(std::isfinite(plan.dump_seconds));
    EXPECT_TRUE(std::isfinite(plan.interval_seconds));
    EXPECT_EQ(plan.dumps, 0);

    const GeneratedWorkload w = build_checkpoint_workload(config);
    EXPECT_EQ(w.window, 0);
    ASSERT_EQ(w.jobs.size(), 1u);
    const JobScripts scripts =
        build_checkpoint_scripts(w.jobs[0], config.checkpoint, config.scale);
    for (const NodeScript& node : scripts.nodes) {
      EXPECT_TRUE(node.ops.empty());
    }
    EXPECT_TRUE(scripts.paths.empty());
  }
}

TEST(CheckpointSource, PullsThroughTheSourceSeam) {
  WorkloadConfig config;
  config.scale = 1.0;
  config.checkpoint.nodes = 3;
  config.checkpoint.runtime_hours = 0.01;
  config.checkpoint.mtti_hours = 0.1;
  config.checkpoint.size_tib = 0.0001;
  SourceSpec spec;
  spec.method = "checkpoint";
  const auto source = load_source(spec, config);
  ASSERT_EQ(source->workload().jobs.size(), 1u);
  const CheckpointPlan plan = plan_checkpoints(config.checkpoint, config.scale);
  ASSERT_GT(plan.dumps, 0);

  (void)source->start_job(0);
  std::int64_t written = 0;
  for (std::int32_t rank = 0; rank < 3; ++rank) {
    for (Op op = source->next(0, rank); op.kind != OpKind::kEnd;
         op = source->next(0, rank)) {
      if (op.kind == OpKind::kWrite) written += op.bytes;
    }
  }
  source->end_job(0);
  EXPECT_EQ(written, plan.image_bytes * plan.dumps);
}

/// apply_checkpoint_flags over one `--name=value` argument.
bool apply_one(const std::string& arg, WorkloadConfig* config) {
  std::string argv0 = "checkpoint_test";
  std::string flag = arg;
  char* argv[] = {argv0.data(), flag.data()};
  const util::Flags flags(2, argv, checkpoint_flag_names());
  return apply_checkpoint_flags(flags, config);
}

// Every value plan_checkpoints (or the driver's subcube allocator) would
// refuse with a CHECK is refused here first, leaving the config untouched,
// so the CLIs report it as a usage error instead of aborting.
TEST(CheckpointFlags, RejectsValuesThePlanCannotSchedule) {
  for (const char* arg :
       {"--chkpoint-nodes=3", "--chkpoint-nodes=0", "--chkpoint-nodes=-4",
        "--chkpoint-nodes=4294967296", "--chkpoint-size=0",
        "--chkpoint-size=-1", "--chkpoint-size=1e-20", "--chkpoint-bw=-1",
        "--chkpoint-bw=0", "--chkpoint-mtti=0", "--chkpoint-chunk=0",
        "--chkpoint-chunk=4294967297", "--chkpoint-nodes=4x"}) {
    SCOPED_TRACE(arg);
    WorkloadConfig config;
    const CheckpointConfig before = config.checkpoint;
    EXPECT_FALSE(apply_one(arg, &config));
    EXPECT_EQ(config.checkpoint.nodes, before.nodes);
    EXPECT_EQ(config.checkpoint.size_tib, before.size_tib);
    EXPECT_EQ(config.checkpoint.chunk_bytes, before.chunk_bytes);
  }
}

TEST(CheckpointFlags, AcceptsEveryBoundItself) {
  for (const char* arg :
       {"--chkpoint-nodes=1", "--chkpoint-nodes=1024", "--chkpoint-size=1e-12",
        "--chkpoint-bw=0.5", "--chkpoint-mtti=0.01", "--chkpoint-chunk=1",
        "--chkpoint-chunk=4294967296", "--chkpoint-runtime=0"}) {
    SCOPED_TRACE(arg);
    WorkloadConfig config;
    ASSERT_TRUE(apply_one(arg, &config));
    const CheckpointPlan plan = plan_checkpoints(config.checkpoint, 1.0);
    EXPECT_GE(plan.image_bytes, 1);
  }
}

}  // namespace
}  // namespace charisma::workload
