// What a study is: the configuration of one run of the paper's methodology
// — the workload, the simulated iPSC/860, its CFS runtime, the trace
// collector and the workload source — and the label and spill budget every
// study shares.  core/stream_study.hpp runs one.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "cfs/runtime.hpp"
#include "ipsc/machine.hpp"
#include "trace/collector.hpp"
#include "workload/config.hpp"
#include "workload/source.hpp"

namespace charisma::core {

/// The label every study stamps into its trace header.  The spill writer
/// takes its copy of the header when the collector starts spilling, so the
/// label must be final before then.  It is also shared across workload
/// sources: the digest folds the label, and keeping it source-independent
/// is what lets a replayed chwl export reproduce its original study's digest
/// bit for bit (the round-trip test pins this).
inline constexpr const char* kStudyTraceLabel =
    "charisma synthetic NAS workload";

/// Default StudyConfig::spill_budget_mb: sized so studies up to scale 1.0
/// (≈310 MB of trace payload plus ≈25 MB of compact replay-op chunks) stay
/// fully resident — disk is for runs beyond the paper's full scale, or for
/// explicitly smaller budgets (campaigns dividing RAM across workers).
inline constexpr std::int64_t kDefaultSpillBudgetMb = 384;
/// The largest StudyConfig::spill_budget_mb whose byte count fits in an
/// int64; the CLIs reject larger budgets, and negative ones, as usage
/// errors.
inline constexpr std::int64_t kMaxSpillBudgetMb =
    std::numeric_limits<std::int64_t>::max() >> 20;

struct StudyConfig {
  workload::WorkloadConfig workload = workload::WorkloadConfig::nas_1993();
  ipsc::MachineConfig machine = ipsc::MachineConfig::nas_ames();
  cfs::RuntimeParams runtime;
  trace::CollectorParams collector;
  /// Which workload source feeds the Driver: the synthetic reconstruction
  /// (default), a chwl replay log ("replay:<path>"), or the Daly
  /// checkpoint-restart archetype ("checkpoint").  Every analyzer, figure
  /// and cache sweep runs unchanged over any source.
  workload::SourceSpec source;
  /// The spill's memory-tier budget (one pool shared by trace blocks,
  /// replay-op chunks, and — when it still fits — the sweeps' decoded flat
  /// op array, which lets small studies replay with zero per-pass decode):
  /// spilled data stays resident up to this many MiB, only the overflow
  /// hits disk.  The default keeps every scale ≤ 1.0 study's spilled
  /// payload in memory; 0 forces the all-disk behavior.  Peak RSS is
  /// bounded by the merge window plus this budget.
  std::int64_t spill_budget_mb = kDefaultSpillBudgetMb;
  /// Directory for the two spills, raw trace blocks and replay ops
  /// ("" = $TMPDIR, then /tmp).
  std::string spill_dir;
};

}  // namespace charisma::core
