// CharismaStudy: the study pipeline and the library's main entry point.
//
// Wires the reproduction together as the paper's methodology runs it:
// workload source (the synthetic production workload by default) -> Driver
// -> simulated iPSC/860 on one serial event engine -> instrumented CFS ->
// per-node trace buffers -> service-node collector, which spills the raw
// trace blocks as they flush -> postprocess (clock fitting and one stable
// k-way merge).  The merge pushes each record, once, in corrected
// chronological order through bounded-state sinks: the session detector,
// the request-size and I/O-rate accumulators, the cache sweeps' replay-op
// spill, and any trace::RecordSink the caller adds.  Nothing here holds the
// whole trace, and the simulated machine is freed before the merge: peak
// RSS is the larger of the simulation and the merge window, plus the spill
// budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analyzers.hpp"
#include "analysis/iorate.hpp"
#include "analysis/session.hpp"
#include "cache/replay.hpp"
#include "core/study.hpp"
#include "trace/postprocess.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"

namespace charisma::core {

struct StreamOptions {
  /// Spill the cache sweeps' replay ops during the merge.  Off skips the op
  /// spill entirely (pure-characterization runs that never simulate caches).
  bool collect_replay_ops = true;
  /// Run the request-size and I/O-rate accumulators during the merge.  Off
  /// skips them (and leaves the result fields empty) for callers that only
  /// need sessions + replay ops.
  bool collect_rate_figures = true;
  /// Write overflow trace blocks from a background writer thread (bounded
  /// queue), so the simulation never blocks on write(2).  Bit-identical
  /// bytes either way; only the timing attribution moves.
  bool async_spill = true;
};

/// Host-side spill/merge measurements of one study: the cost of never
/// holding the trace, itemized.  All host milliseconds (never simulated
/// time).
struct SpillTelemetry {
  /// Blocked in write(2): trace spill (synchronous mode) plus replay-op
  /// disk-tier chunks.  In async mode the trace writer's (overlapped) thread
  /// time still lands here; append_stall_ms is what the simulation paid.
  double spill_write_ms = 0.0;
  /// Reading spilled data back: the merge's block loads.  The digest pass
  /// is timed separately (digest_ms).
  double spill_read_ms = 0.0;
  /// The FNV fold over the full trace payload (both tiers).
  double digest_ms = 0.0;
  /// Pushing merged record batches through the sinks.
  double sink_ms = 0.0;
  /// Host ms append() waited on the async writer's bounded queue.
  double append_stall_ms = 0.0;
  std::int64_t spill_bytes_written = 0;
  std::int64_t spill_bytes_read = 0;
  std::uint64_t trace_blocks_in_memory = 0;
  std::uint64_t trace_blocks_on_disk = 0;
  std::uint64_t ops_chunks_in_memory = 0;
  std::uint64_t ops_chunks_on_disk = 0;
  std::int64_t spill_budget_mb = 0;  ///< the budget the run actually used
};

/// What a study keeps resident: headline counters, the accumulators'
/// finished results, and the replay-op spill — never the trace.
struct StreamedStudyOutput {
  trace::TraceHeader header;
  /// SpilledTrace::digest() of the spilled raw trace.
  std::uint64_t trace_digest = 0;
  /// Records pushed through the postprocessing merge (== records).
  std::uint64_t streamed_records = 0;

  analysis::SessionStore sessions;
  /// Default-constructed (empty) when collect_rate_figures was off.
  analysis::RequestSizeResult request_sizes;
  analysis::IoRateResult io_rate;
  /// Unresolved-flag replay ops for SweepRunner; empty when
  /// StreamOptions::collect_replay_ops was off.  Pair it with
  /// sessions.read_only_sessions().
  cache::ReplayOpSpill replay_ops;

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
  /// Host ms of the simulation itself (Driver::run: the engine's dispatch
  /// and every layer beneath it), without the digest and the merge.
  double sim_ms = 0.0;

  /// Spill/merge host-time and tier telemetry for this run.
  SpillTelemetry spill;
};

/// The one study pipeline, behind run_streamed_study: builds the rig, runs
/// the simulation with the collector spilling, folds the digest, then hands
/// the finished trace to merge_study.  Fills `out` and returns the finished
/// raw trace (save() writes it as a `.chtr`); dropping it deletes its spill
/// file.  Deterministic in `config`.
[[nodiscard]] trace::SpilledTrace stream_study(
    const StudyConfig& config, const StreamOptions& options,
    StreamedStudyOutput& out,
    const std::vector<trace::RecordSink*>& sinks = {});

/// The merge half of every study, for a live study's trace and a saved one
/// alike: runs the postprocessing merge once into the built-in sinks (as
/// `options` selects), then into `sinks` (caller-owned, fed in order).
/// Fills `out`'s header, streamed_records, the sinks' results and the
/// merge's spill telemetry; the simulation counters, the digest and its
/// telemetry are stream_study's.  Replay-op chunks reserve from `budget`
/// and overflow into `spill_dir` ("" = $TMPDIR, then /tmp).
void merge_study(const trace::SpilledTrace& spilled,
                 const StreamOptions& options, trace::SpillBudget& budget,
                 const std::string& spill_dir, StreamedStudyOutput& out,
                 const std::vector<trace::RecordSink*>& sinks = {});

/// Runs the full study.  Deterministic in `config`; the raw-trace spill is
/// deleted before returning (the replay-op spill belongs to the output).
[[nodiscard]] StreamedStudyOutput run_streamed_study(
    const StudyConfig& config, const StreamOptions& options = {});

}  // namespace charisma::core
