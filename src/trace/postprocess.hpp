// Trace postprocessing (paper §3.2): data realignment, clock
// synchronization, and chronological sorting.
//
// Raw trace files hold per-node blocks whose records carry drifting local
// timestamps.  Each block was stamped when it left its node (local clock)
// and when it reached the collector (reference clock); from these pairs we
// fit, per node, a linear local->reference mapping by least squares and
// re-timestamp every record.  The result is "a closer approximation" of the
// true event order — still approximate, which is why the analyses (like the
// paper's) lean on spatial rather than temporal information.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/spill.hpp"

namespace charisma::trace {

/// local -> reference mapping: reference ~= scale * local + offset.
struct ClockFit {
  double scale = 1.0;
  double offset = 0.0;
  std::size_t samples = 0;

  [[nodiscard]] MicroSec apply(MicroSec local) const noexcept;
};

/// Fits one ClockFit per node from the blocks' double timestamps, read from
/// the block index — the stamps are all the fit needs, so no record payload
/// is read.
[[nodiscard]] std::unordered_map<NodeId, ClockFit> fit_clocks(
    const SpilledTrace& trace);

/// What the streaming merge measured (host time, not simulated time).
struct StreamMergeStats {
  /// Host ms spent loading blocks: memory-tier decodes and disk reads.
  double read_ms = 0.0;
  /// Host ms spent pushing record batches into the sinks.
  double sink_ms = 0.0;
  std::int64_t disk_bytes_read = 0;  ///< payload bytes loaded from disk
};

struct StreamMergeOptions {
  StreamMergeStats* stats = nullptr;  ///< optional measurement out-param
};

/// The postprocessing merge: fits the clocks from the block stamps, then
/// runs one stable k-way merge over the node cursors, reading one block per
/// cursor from the spilled trace and pushing each corrected record to every
/// sink in `sinks` order.  The output order is the corrected records stably
/// sorted by corrected timestamp, ties kept in concatenated block order.
/// Disk-tier blocks are read on the calling thread, one pread each.  Peak
/// memory is one in-flight block per node and the sinks' own state.
/// Returns the record count pushed.
std::uint64_t stream_postprocess(const SpilledTrace& trace,
                                 const std::vector<RecordSink*>& sinks,
                                 const StreamMergeOptions& options = {});

}  // namespace charisma::trace
