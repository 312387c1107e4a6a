#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>

namespace charisma::workload {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig c;
  c.scale = 0.1;
  c.seed = 123;
  return c;
}

TEST(Generator, DeterministicInSeed) {
  const auto a = generate(small_config());
  const auto b = generate(small_config());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.inputs.size(), b.inputs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].nodes, b.jobs[i].nodes);
    EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
    EXPECT_EQ(a.jobs[i].archetype, b.jobs[i].archetype);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  WorkloadConfig c2 = small_config();
  c2.seed = 321;
  const auto a = generate(small_config());
  const auto b = generate(c2);
  int diffs = 0;
  for (std::size_t i = 0; i < std::min(a.jobs.size(), b.jobs.size()); ++i) {
    diffs += a.jobs[i].arrival != b.jobs[i].arrival;
  }
  EXPECT_GT(diffs, 10);
}

TEST(Generator, JobsSortedByArrivalWithinWindow) {
  const auto w = generate(small_config());
  for (std::size_t i = 1; i < w.jobs.size(); ++i) {
    EXPECT_LE(w.jobs[i - 1].arrival, w.jobs[i].arrival);
  }
  for (const auto& j : w.jobs) {
    EXPECT_GE(j.arrival, 0);
    EXPECT_LE(j.arrival, w.window);
    EXPECT_EQ(j.job, static_cast<cfs::JobId>(&j - w.jobs.data()));
  }
}

TEST(Generator, NodeCountsArePowersOfTwoUpTo128) {
  const auto w = generate(small_config());
  for (const auto& j : w.jobs) {
    EXPECT_TRUE(std::has_single_bit(static_cast<std::uint32_t>(j.nodes)));
    EXPECT_LE(j.nodes, 128);
  }
}

TEST(Generator, JobMixScalesWithScale) {
  WorkloadConfig half = small_config();
  half.scale = 0.5;
  const auto w = generate(half);
  // 3016 total at scale 1; ~1510 at 0.5 (plus a few explicit one-offs).
  EXPECT_NEAR(static_cast<double>(w.jobs.size()), 3016 * 0.5, 60);
  int single = 0;
  for (const auto& j : w.jobs) single += j.nodes == 1;
  EXPECT_NEAR(static_cast<double>(single) / 3016 / 0.5,
              2237.0 / 3016.0, 0.05);
}

TEST(Generator, TracedAndUntracedJobsBothPresent) {
  const auto w = generate(small_config());
  int traced = 0, untraced = 0;
  for (const auto& j : w.jobs) (j.traced ? traced : untraced)++;
  EXPECT_GT(traced, 20);
  EXPECT_GT(untraced, 100);
}

TEST(Generator, InputIndicesAreValid) {
  const auto w = generate(small_config());
  for (const auto& j : w.jobs) {
    for (const auto idx : j.input_files) {
      ASSERT_GE(idx, 0);
      ASSERT_LT(static_cast<std::size_t>(idx), w.inputs.size());
      EXPECT_GT(w.inputs[static_cast<std::size_t>(idx)].bytes, 0);
    }
  }
}

TEST(Generator, InputPathsAreUnique) {
  const auto w = generate(small_config());
  std::set<std::string> paths;
  for (const auto& in : w.inputs) {
    EXPECT_TRUE(paths.insert(in.path).second) << "duplicate " << in.path;
  }
}

TEST(Generator, FullScaleIncludesTheOneOffJobs) {
  WorkloadConfig c;
  c.scale = 1.0;
  c.seed = 5;
  const auto w = generate(c);
  bool has_2217_style = false, has_1mb = false;
  for (const auto& j : w.jobs) {
    if (j.archetype == Archetype::kCfdSolver && j.params.snapshots == 17 &&
        j.nodes == 128) {
      has_2217_style = true;
    }
    if (j.archetype == Archetype::kCheckpointWrite &&
        j.params.chunk_bytes == util::kMiB) {
      has_1mb = true;
    }
  }
  EXPECT_TRUE(has_2217_style);
  EXPECT_TRUE(has_1mb);
}

// ---- Script compilation ---------------------------------------------------

class ScriptInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScriptInvariants, EveryJobScriptIsWellFormed) {
  WorkloadConfig c = small_config();
  c.seed = GetParam();
  const auto w = generate(c);
  for (const auto& spec : w.jobs) {
    const JobScripts scripts = build_scripts(spec, w);
    ASSERT_EQ(scripts.nodes.size(), static_cast<std::size_t>(spec.nodes));
    std::size_t barriers_expected = 0;
    bool barriers_checked = false;
    for (const auto& node : scripts.nodes) {
      std::set<std::int32_t> open_paths;
      std::size_t barriers = 0;
      for (const Op& op : node.ops) {
        EXPECT_GE(op.think, 0);
        switch (op.kind) {
          case OpKind::kOpen:
            ASSERT_GE(op.path, 0);
            ASSERT_LT(static_cast<std::size_t>(op.path),
                      scripts.paths.size());
            EXPECT_TRUE(open_paths.insert(op.path).second)
                << "double open of " << scripts.paths[static_cast<std::size_t>(op.path)];
            break;
          case OpKind::kClose:
            EXPECT_EQ(open_paths.erase(op.path), 1u) << "close unopened";
            break;
          case OpKind::kRead:
          case OpKind::kWrite:
            EXPECT_GT(op.bytes, 0);
            EXPECT_TRUE(open_paths.count(op.path)) << "I/O on closed file";
            break;
          case OpKind::kSeek:
            EXPECT_TRUE(open_paths.count(op.path)) << "seek on closed file";
            break;
          case OpKind::kUnlink:
            EXPECT_FALSE(open_paths.count(op.path))
                << "unlink while open (script style: close first)";
            break;
          case OpKind::kThink:
            break;
          case OpKind::kBarrier:
            ++barriers;
            break;
          case OpKind::kEnd:
            ADD_FAILURE() << "a built script holds the source's end sentinel";
            break;
        }
      }
      EXPECT_TRUE(open_paths.empty()) << "files left open at job end";
      if (!barriers_checked) {
        barriers_expected = barriers;
        barriers_checked = true;
      } else {
        EXPECT_EQ(barriers, barriers_expected)
            << "nodes disagree on barrier count";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptInvariants,
                         ::testing::Values(1, 42, 777));

TEST(Scripts, SolverHasInterleaveSignature) {
  // A solver node's grid accesses must produce at most two positive-offset
  // interval sizes {0, stride} per pass (the Table 2 signature).
  WorkloadConfig c = small_config();
  const auto w = generate(c);
  for (const auto& spec : w.jobs) {
    if (spec.archetype != Archetype::kCfdSolver || !spec.traced) continue;
    const JobScripts scripts = build_scripts(spec, w);
    const auto& ops = scripts.nodes[0].ops;
    // Find the grid path: the first read after the first seek-to-set
    // following a barrier.
    std::map<std::int32_t, std::set<std::int64_t>> seek_gaps;
    for (const Op& op : ops) {
      if (op.kind == OpKind::kSeek && op.whence == Whence::kCurrent) {
        seek_gaps[op.path].insert(op.offset);
      }
    }
    for (const auto& [path, gaps] : seek_gaps) {
      EXPECT_LE(gaps.size(), 2u)
          << "irregular stride on " << scripts.paths[static_cast<std::size_t>(path)];
    }
    return;  // one solver job suffices
  }
}

TEST(Scripts, TempFileJobsDeleteWhatTheyCreate) {
  WorkloadConfig c = small_config();
  const auto w = generate(c);
  bool found = false;
  for (const auto& spec : w.jobs) {
    if (spec.archetype != Archetype::kTempFile) continue;
    found = true;
    const JobScripts scripts = build_scripts(spec, w);
    for (const auto& node : scripts.nodes) {
      std::set<std::int32_t> created, unlinked;
      for (const Op& op : node.ops) {
        if (op.kind == OpKind::kOpen && (op.flags & cfs::kCreate)) {
          created.insert(op.path);
        }
        if (op.kind == OpKind::kUnlink) unlinked.insert(op.path);
      }
      EXPECT_EQ(created, unlinked);
      EXPECT_FALSE(created.empty());
    }
  }
  EXPECT_TRUE(found);
}

TEST(Scripts, SharedPointerJobsBarrierBeforeSharedReads) {
  WorkloadConfig c;
  c.scale = 0.3;
  c.seed = 9;
  const auto w = generate(c);
  for (const auto& spec : w.jobs) {
    if (spec.archetype != Archetype::kSharedPointer) continue;
    const JobScripts scripts = build_scripts(spec, w);
    for (const auto& node : scripts.nodes) {
      bool seen_barrier = false;
      for (const Op& op : node.ops) {
        if (op.kind == OpKind::kBarrier) seen_barrier = true;
        if (op.kind == OpKind::kRead) {
          EXPECT_TRUE(seen_barrier) << "read before the open barrier";
        }
      }
    }
    return;
  }
  GTEST_SKIP() << "no shared-pointer job drawn at this scale/seed";
}

TEST(Scripts, StatusJobsDoNoCfsIo) {
  const auto w = generate(small_config());
  for (const auto& spec : w.jobs) {
    if (spec.archetype != Archetype::kStatusCheck &&
        spec.archetype != Archetype::kSystem) {
      continue;
    }
    const JobScripts scripts = build_scripts(spec, w);
    for (const auto& node : scripts.nodes) {
      for (const Op& op : node.ops) {
        EXPECT_EQ(op.kind, OpKind::kThink);
      }
    }
  }
}

TEST(Generator, DiurnalArrivalsPeakInTheAfternoon) {
  WorkloadConfig c;
  c.scale = 1.0;
  c.seed = 2;
  c.diurnal_amplitude = 0.45;
  const auto w = generate(c);
  std::int64_t afternoon = 0, night = 0;
  for (const auto& j : w.jobs) {
    const auto hour = (j.arrival % (24 * util::kHour)) / util::kHour;
    if (hour >= 12 && hour < 18) ++afternoon;
    if (hour >= 0 && hour < 6) ++night;
  }
  EXPECT_GT(afternoon, night * 3 / 2);
}

TEST(Generator, ZeroAmplitudeIsRoughlyUniform) {
  WorkloadConfig c;
  c.scale = 1.0;
  c.seed = 2;
  c.diurnal_amplitude = 0.0;
  const auto w = generate(c);
  std::int64_t afternoon = 0, night = 0;
  for (const auto& j : w.jobs) {
    const auto hour = (j.arrival % (24 * util::kHour)) / util::kHour;
    if (hour >= 12 && hour < 18) ++afternoon;
    if (hour >= 0 && hour < 6) ++night;
  }
  EXPECT_NEAR(static_cast<double>(afternoon),
              static_cast<double>(night), 0.15 * static_cast<double>(night));
}

TEST(Scripts, BuildIsDeterministic) {
  const auto w = generate(small_config());
  const auto& spec = w.jobs[w.jobs.size() / 2];
  const JobScripts a = build_scripts(spec, w);
  const JobScripts b = build_scripts(spec, w);
  ASSERT_EQ(a.total_ops(), b.total_ops());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    for (std::size_t i = 0; i < a.nodes[n].ops.size(); ++i) {
      EXPECT_EQ(a.nodes[n].ops[i].think, b.nodes[n].ops[i].think);
      EXPECT_EQ(a.nodes[n].ops[i].bytes, b.nodes[n].ops[i].bytes);
      EXPECT_EQ(a.nodes[n].ops[i].kind, b.nodes[n].ops[i].kind);
    }
  }
}

}  // namespace
}  // namespace charisma::workload
