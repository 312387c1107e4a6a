// The tracing pipeline's machine-side half: per-node record buffers and the
// service-node data collector.
//
// Paper §3.1: event records are buffered in a 4 KB buffer on each compute
// node (cutting collector messages by >90%); full buffers are sent to a
// collector on the service node, which appends them to the central trace
// file through a large staging buffer written in big sequential chunks.
// Here the central trace file is a SpillWriter: each flushed block is
// encoded into it as it arrives, so the collector never holds the trace.
// Job starts/ends are recorded through a separate mechanism (here: straight
// into the collector with the collector's own clock).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ipsc/machine.hpp"
#include "trace/spill.hpp"
#include "trace/trace_file.hpp"

namespace charisma::trace {

struct CollectorParams {
  /// Per-compute-node record buffer (one iPSC message fragment).
  std::int64_t node_buffer_bytes = util::kBlockSize;
  /// The collector's staging buffer, flushed to CFS when full.
  std::int64_t collector_buffer_bytes = 64 * util::kKiB;
  /// Set false to model the unbuffered design the paper rejected: each
  /// record is its own message to the collector (ablation C baseline).
  bool buffer_on_nodes = true;
};

class Collector {
 public:
  Collector(ipsc::Machine& machine, CollectorParams params = {});

  /// Sets the header's seed and label.  Must run before start_spilling():
  /// the spill writer takes its copy of the header there, and the finished
  /// trace carries that copy.
  void annotate(std::uint64_t seed, std::string label);

  /// Opens the spill writer every flushed block goes to (memory tier up to
  /// the options' budget, overflow to a scratch file); the collector itself
  /// keeps only the per-node buffers.  Must be called
  /// before any record arrives; finish with take_spilled().
  void start_spilling(const SpillTarget& target,
                      const SpillWriterOptions& options = {});

  /// Appends one event record generated on `record.node` at the current
  /// engine time.  Timestamps the record with the node's local clock.
  /// Needs start_spilling().
  void append(Record record);
  /// Records a job start/end directly (bypasses node buffers).  Needs
  /// start_spilling().
  void append_job_event(Record record);
  /// Flushes every node buffer (end of a tracing period).
  void flush_all();

  /// Finishes the trace: flushes, stamps trace_end, and returns the
  /// spilled trace's index.  Needs start_spilling().
  [[nodiscard]] SpilledTrace take_spilled();

  // --- Perturbation accounting (paper §3.1, ablation C) ---------------
  [[nodiscard]] std::uint64_t records_seen() const noexcept {
    return records_seen_;
  }
  [[nodiscard]] std::uint64_t messages_to_collector() const noexcept {
    return messages_;
  }
  /// Bytes the collector wrote to CFS (its own, untraced, I/O).
  [[nodiscard]] std::int64_t trace_bytes_written() const noexcept {
    return trace_bytes_;
  }
  [[nodiscard]] std::uint64_t collector_cfs_writes() const noexcept {
    return collector_writes_;
  }

 private:
  struct NodeBuffer {
    std::vector<Record> records;
    /// Newest local timestamp this node has emitted (survives flushes):
    /// per-node record times must be monotone or the postprocessor's clock
    /// fit is built on sand.
    MicroSec last_timestamp = 0;
    bool any_records = false;
  };
  [[nodiscard]] std::size_t records_per_buffer() const noexcept {
    return records_per_buffer_;
  }
  void flush_node(NodeId node);

  ipsc::Machine* machine_;
  CollectorParams params_;
  std::size_t records_per_buffer_ = 1;  // derived from params_ once
  std::vector<NodeBuffer> buffers_;  // per compute node
  TraceHeader header_;
  std::unique_ptr<SpillWriter> writer_;
  std::int64_t staged_bytes_ = 0;
  std::uint64_t records_seen_ = 0;
  std::uint64_t messages_ = 0;
  std::int64_t trace_bytes_ = 0;
  std::uint64_t collector_writes_ = 0;
};

}  // namespace charisma::trace
