// Darshan-style workload log replay (the "replay" workload source) and the
// matching exporter.
//
// The log is the pluggable-source counterpart of a Darshan-lite I/O trace:
// per-rank open/read/write/seek/close/unlink/think/barrier events, enough
// to re-drive the simulated CFS through the same Driver as the synthetic
// generator.  export_source_log() writes one from ANY Source, which makes
// the schema self-validating (export a synthetic workload, replay it, and
// the trace digest must match bit for bit — the round-trip test pins this)
// and gives charisma_analyze its --dump-workload debugging tool.
//
// Schema ("chwl" v1, line-oriented text; '#' lines and blank lines are
// ignored; paths contain no whitespace; all times are microseconds):
//
//   chwl 1
//   window <usec>                          tracing-window length
//   input <bytes> <path>                   pre-populated file (0+ lines)
//   job <id> <arrival> <nodes> <traced 0|1> <archetype>   (nodes: 2^k)
//   op <rank> think <think>
//   op <rank> barrier <think>
//   op <rank> open <flags> <mode> <think> <path>
//   op <rank> read <bytes> <think> <path>
//   op <rank> write <bytes> <think> <path>
//   op <rank> seek <offset> <set|cur|end> <think> <path>
//   op <rank> close <think> <path>
//   op <rank> unlink <think> <path>
//   end chwl
//
// A job's op lines follow its `job` line (jobs in nondecreasing arrival
// order, ids unique); within a job each rank's ops appear in program order,
// ranks interleaved freely.  <flags> is the cfs::OpenFlags bitmask, <mode>
// the numeric cfs::IoMode, <archetype> a workload::to_string(Archetype)
// name (reporting only — scripts come from the op lines).
//
// Reader contract (in the spirit of trace::SpilledTrace): one bounded
// indexing scan at load — line length, node counts (powers of two: the
// machine allocates jobs hypercube subcubes), byte counts, and rank
// ranges are range-checked before anything is allocated from them, so a
// garbage byte can cost a typed ReplayFormatError but never an unbounded
// allocation or a crash.  The reader has one mode, strict: a log cut off
// mid-write (missing footer or torn final line) throws, since partial
// scripts could strand ranks at a barrier.  Job scripts are materialized
// per job at start_job() by re-reading that job's byte region, never the
// whole log.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/source.hpp"

namespace charisma::workload {

/// Typed parse/validation error; the message carries the 1-based line.
class ReplayFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An indexed chwl log: job/input metadata resident, op bytes on disk.
class ReplayLog {
 public:
  /// Scans and validates the whole log.  `config` seeds the returned
  /// workload's WorkloadConfig (the log itself carries no seed).  Throws
  /// ReplayFormatError on a missing footer or torn final line.
  [[nodiscard]] static ReplayLog load(const std::string& path,
                                      const WorkloadConfig& config);

  [[nodiscard]] const GeneratedWorkload& workload() const noexcept {
    return workload_;
  }

  /// Re-reads and compiles one job's op region.  Allocation is proportional
  /// to that job's ops (validated at load), never the log.
  [[nodiscard]] JobScripts compile_job(std::size_t spec_index) const;

 private:
  /// Byte range [begin, end) of a job's op lines, for compile_job's seek.
  struct JobRegion {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::size_t first_line = 1;  // 1-based, for error messages
  };

  GeneratedWorkload workload_;
  std::vector<JobRegion> regions_;  // parallel to workload_.jobs
  std::string path_;
};

/// The "replay" method factory: loads `path` into a Source.
[[nodiscard]] std::unique_ptr<Source> make_replay_source(
    const std::string& path, const WorkloadConfig& config);

/// Writes `source`'s whole workload as a chwl v1 log.  Pulls every job
/// through the Source seam (start_job/next/end_job), so at most one job's
/// scripts are resident.  CHECK-fails on unwritable paths or path-table
/// entries containing whitespace.
void export_source_log(Source& source, const std::string& path);

}  // namespace charisma::workload
