// The streaming (bounded-memory) study runner — TraceMode::kStreaming.
//
// Runs the identical simulation as run_study, but the collector spills raw
// trace blocks to disk as they flush instead of accumulating a TraceFile,
// and the postprocessing merge pushes each record — once, in corrected
// chronological order — through bounded-state sinks: the session detector,
// the request-size and I/O-rate accumulators, and the cache sweeps' replay-
// op spill.  Nothing ever holds the whole trace: peak RSS is the simulation
// itself plus the k-way merge window, independent of trace length.
//
// Every statistic is bit-identical to the materialized path because the
// sinks ARE the implementation the materialized analyzers call, the merge
// uses the same ordering key as trace::postprocess, and the spilled bytes
// are the same encoding TraceFile::write emits (so the digest matches too —
// the streaming differential test holds both modes to one digest).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/analyzers.hpp"
#include "analysis/iorate.hpp"
#include "analysis/session.hpp"
#include "cache/replay.hpp"
#include "core/study.hpp"

namespace charisma::core {

struct StreamOptions {
  /// Directory for the two spills (raw trace blocks, replay ops).  Non-empty
  /// overrides StudyConfig::spill_dir; empty defers to it (and then to
  /// $TMPDIR, falling back to /tmp).
  std::string spill_dir;
  /// Spill the cache sweeps' replay ops during the merge.  Off skips the op
  /// spill entirely (pure-characterization runs that never simulate caches).
  bool collect_replay_ops = true;
  /// Forwarded to the session detector (sharing analysis needs it).
  bool track_coverage = true;
  /// Run the request-size and I/O-rate accumulators during the merge.  Off
  /// skips them (and leaves the result fields empty) for callers that only
  /// need sessions + replay ops — the materialized study never computes
  /// them, so perf_study turns this off to keep the mode comparison fair.
  bool collect_rate_figures = true;
  /// Write overflow trace blocks from a background writer thread (bounded
  /// queue), so the simulation never blocks on write(2).  Bit-identical
  /// bytes either way; only the timing attribution moves.
  bool async_spill = true;
  /// Background-prefetch the merge's next disk block per node cursor.
  bool prefetch = true;
  /// Memory-tier budget override in MiB; negative defers to
  /// StudyConfig::spill_budget_mb.  0 forces the all-disk behavior.
  std::int64_t spill_budget_mb = -1;
};

/// Host-side spill/merge measurements of one streamed study — the streaming
/// tax, itemized.  All host milliseconds (never simulated time).
struct SpillTelemetry {
  /// Blocked in write(2): trace spill (synchronous mode) plus replay-op
  /// overflow frames.  In async mode the trace writer's (overlapped) thread
  /// time still lands here; append_stall_ms is what the simulation paid.
  double spill_write_ms = 0.0;
  /// Blocked reading spilled data back: the merge's synchronous block loads
  /// and prefetch waits.  The digest pass is timed separately (digest_ms)
  /// so both trace modes can report it as its own stage.
  double spill_read_ms = 0.0;
  /// The FNV fold over the full trace payload (both tiers).  The
  /// materialized mode pays the same pass over its TraceFile; perf_study
  /// times it there too, so the modes' study stages stay comparable.
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

/// What the streaming study keeps resident: headline counters, the
/// accumulators' finished results, and the on-disk replay-op spill — never
/// the trace.
struct StreamedStudyOutput {
  trace::TraceHeader header;
  /// TraceFile::digest()-compatible digest of the spilled raw trace.
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

  // Perturbation accounting — field-for-field the StudyOutput counters.
  std::uint64_t records = 0;
  std::uint64_t collector_messages = 0;
  std::int64_t trace_bytes = 0;
  std::int64_t user_bytes_moved = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t events_dispatched = 0;
  util::MicroSec sim_end = 0;

  /// Spill/merge host-time and tier telemetry for this run.
  SpillTelemetry spill;
};

/// Runs the full study in streaming mode.  Deterministic in `config`; the
/// spill files are private, uniquely named, and deleted before returning
/// (except the replay-op spill, which the output owns).
[[nodiscard]] StreamedStudyOutput run_streamed_study(
    const StudyConfig& config, const StreamOptions& options = {});

/// Unique spill-file path in `dir` (or the temp directory when empty):
/// pid + process-wide counter, so concurrent campaign workers and
/// concurrent CI processes never collide.
[[nodiscard]] std::string spill_file_path(const std::string& dir,
                                          const char* tag);

}  // namespace charisma::core
