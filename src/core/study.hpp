// CharismaStudy — the top-level pipeline and the library's main entry point.
//
// Wires the full reproduction together exactly as the paper's methodology
// runs: workload source (the synthetic production workload by default) ->
// Driver -> simulated iPSC/860 on one serial event engine -> instrumented
// CFS -> per-node trace buffers -> service-node collector -> raw trace ->
// postprocess (clock fitting + sort).  Analyzers and cache simulators then
// consume the postprocessed trace.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cfs/runtime.hpp"
#include "ipsc/machine.hpp"
#include "sim/engine.hpp"
#include "trace/collector.hpp"
#include "trace/postprocess.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace charisma::core {

/// The label every study stamps into its trace header.  Shared between the
/// materialized and streaming runners: the spill header is written up front,
/// so the label must be identical (and final) in both modes for the trace
/// digests to match.  Also shared across workload sources — the digest
/// folds the label, and keeping it source-independent is what lets a
/// replayed chwl export reproduce its original study's digest bit for bit
/// (the round-trip test pins this).
inline constexpr const char* kStudyTraceLabel =
    "charisma synthetic NAS workload";

/// How the pipeline hands the trace to its consumers.
enum class TraceMode : std::uint8_t {
  /// Default: spill raw trace blocks to disk during the run, merge them once
  /// in postprocessed order, and push every record through bounded-state
  /// sinks (sessions, request sizes, I/O rate, replay ops).  Peak RSS is
  /// O(merge window), not O(trace length).
  kStreaming,
  /// Reference: materialize the whole trace in memory (TraceFile +
  /// SortedTrace) and run each consumer as its own pass.  Kept for
  /// differential testing and ad-hoc exploration of the record vector.
  kMaterialized,
};

[[nodiscard]] constexpr const char* to_string(TraceMode m) noexcept {
  switch (m) {
    case TraceMode::kStreaming: return "streaming";
    case TraceMode::kMaterialized: return "materialized";
  }
  return "?";
}

/// "streaming" | "materialized" -> TraceMode; nullopt on anything else (the
/// CLIs turn that into a usage error).
[[nodiscard]] std::optional<TraceMode> parse_trace_mode(
    const std::string& name);

/// Default StudyConfig::spill_budget_mb: sized so studies up to scale 1.0
/// (≈310 MB of trace payload plus ≈25 MB of compact replay-op chunks) stay
/// fully resident — disk is for runs beyond the paper's full scale, or for
/// explicitly smaller budgets (campaigns dividing RAM across workers).
inline constexpr std::int64_t kDefaultSpillBudgetMb = 384;

struct StudyConfig {
  workload::WorkloadConfig workload = workload::WorkloadConfig::nas_1993();
  ipsc::MachineConfig machine = ipsc::MachineConfig::nas_ames();
  cfs::RuntimeParams runtime;
  trace::CollectorParams collector;
  /// Which workload source feeds the Driver: the synthetic reconstruction
  /// (default), a chwl replay log ("replay:<path>"), or the Daly
  /// checkpoint-restart archetype ("checkpoint").  Every analyzer, figure,
  /// cache sweep, and trace mode runs unchanged over any source.
  workload::SourceSpec source;
  /// Streaming mode's memory-tier budget (one pool shared by trace blocks,
  /// replay-op chunks, and — when it still fits — the sweeps' decoded flat
  /// op array, which lets small studies replay with zero per-pass decode):
  /// spilled data stays resident up to this many MiB, only the overflow
  /// hits disk.  The default keeps every scale ≤ 1.0 study's spilled
  /// payload in memory; 0 forces the all-disk pre-tier behavior.  Peak RSS
  /// is bounded by the streaming window plus this budget.
  std::int64_t spill_budget_mb = kDefaultSpillBudgetMb;
  /// Streaming mode's spill directory ("" = $TMPDIR, then /tmp).
  std::string spill_dir;
};

struct StudyOutput {
  trace::TraceFile raw;
  trace::SortedTrace sorted;
  std::vector<workload::JobResult> jobs;
  workload::GeneratedWorkload workload;

  // Perturbation accounting (§3.1 / ablation C).
  std::uint64_t records = 0;
  std::uint64_t collector_messages = 0;
  std::int64_t trace_bytes = 0;
  std::int64_t user_bytes_moved = 0;  // all disk traffic, for the <1% claim
  std::uint64_t total_ops = 0;
  std::uint64_t events_dispatched = 0;  // engine events, for events/sec
  util::MicroSec sim_end = 0;
};

/// Runs the full study.  Deterministic in `config`.
[[nodiscard]] StudyOutput run_study(const StudyConfig& config);

/// Convenience used by benches: a study at the given workload scale with
/// everything else at the NAS defaults.
[[nodiscard]] StudyOutput run_study_at_scale(double scale,
                                             std::uint64_t seed = 42);

}  // namespace charisma::core
