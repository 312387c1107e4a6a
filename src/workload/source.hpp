// Pluggable workload sources: the generator side of the workload -> CFS
// boundary.
//
// Modeled on the codes-workload API: a fixed table of named generator methods,
// each loaded into a Source that the Driver pulls operations from one at a
// time — next(job, rank) returns the rank's next Op, or OpKind::kEnd when
// the rank's script is exhausted.  The synthetic 1993 reconstruction is the
// first method ("synthetic"); a Darshan-style log replayer ("replay", see
// replay.hpp) and a Daly-interval checkpoint-restart archetype
// ("checkpoint", see checkpoint.hpp) ride behind the same seam, so every
// analyzer and cache sweep runs unchanged over any source.
//
// Memory contract: a Source materializes per-job scripts only between
// start_job() and end_job(), so at most the <= machine-width set of running
// jobs holds script memory, never the whole workload.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "workload/generator.hpp"

namespace charisma::workload {

/// A workload generator behind the pluggable seam.  The Driver calls
/// start_job() when the scheduler starts spec_index (returning the job's
/// path table), pulls ops per rank with next(), and calls end_job() when
/// every rank finished so the source can free the job's script state.
class Source {
 public:
  virtual ~Source() = default;

  /// The arrival stream and pre-population metadata.  Stable for the
  /// source's lifetime (the Driver keeps JobSpec pointers into it).
  [[nodiscard]] virtual const GeneratedWorkload& workload() const noexcept = 0;

  /// Compiles/loads the job's scripts; returns its job-relative path table.
  virtual std::vector<std::string> start_job(std::size_t spec_index) = 0;

  /// The rank's next operation, or kind == OpKind::kEnd when exhausted.
  /// Ranks are pulled in simulation-event order; each op is pulled once.
  [[nodiscard]] virtual Op next(std::size_t spec_index, std::int32_t rank) = 0;

  /// Every rank of the job finished; script state may be freed.
  virtual void end_job(std::size_t spec_index) = 0;
};

/// Which method to load, plus its argument (the replay log path).
/// Parsed from "synthetic" | "replay:<path>" | "checkpoint" — generally
/// "<method>" or "<method>:<arg>".
struct SourceSpec {
  std::string method = "synthetic";
  std::string path;
};

/// Parses `text` and checks that a method can load it: the
/// method must be known, and its ':<arg>' present exactly when the method
/// takes one.  A bad spec returns nullopt with a one-line reason in
/// `*error` instead of aborting, so the CLIs can turn a bad --workload=
/// into a usage error before any study runs.
[[nodiscard]] std::optional<SourceSpec> try_parse_source_spec(
    const std::string& text, std::string* error);
/// try_parse_source_spec for specs known to be good; CHECK-fails otherwise.
[[nodiscard]] SourceSpec parse_source_spec(const std::string& text);
[[nodiscard]] std::string to_string(const SourceSpec& spec);

/// The method names, sorted (for error messages and --help).
[[nodiscard]] std::vector<std::string> source_method_names();

/// Instantiates the spec's method.  CHECK-fails on a spec that
/// try_parse_source_spec would reject; throws (e.g. ReplayFormatError)
/// when the method rejects its input.
[[nodiscard]] std::unique_ptr<Source> load_source(
    const SourceSpec& spec, const WorkloadConfig& config);

/// Shared Source base for methods that compile whole per-job scripts:
/// start_job() materializes the job via compile_job(), next() walks a
/// per-rank cursor, end_job() frees the scripts.
class ScriptedSource : public Source {
 public:
  [[nodiscard]] const GeneratedWorkload& workload() const noexcept override {
    return workload_;
  }
  std::vector<std::string> start_job(std::size_t spec_index) override;
  [[nodiscard]] Op next(std::size_t spec_index, std::int32_t rank) override;
  void end_job(std::size_t spec_index) override;

 protected:
  /// The job's scripts; called once per start_job().
  [[nodiscard]] virtual JobScripts compile_job(std::size_t spec_index) = 0;

  GeneratedWorkload workload_;

 private:
  struct ActiveJob {
    std::vector<NodeScript> nodes;
    std::vector<std::size_t> cursors;  // per-rank program counters
  };
  std::map<std::size_t, ActiveJob> active_;
};

/// Applies the CODES-style --chkpoint-size/bw/runtime/mtti (+ the
/// charisma-specific --chkpoint-nodes/chunk) flags onto config.checkpoint.
/// Shared by perf_study, charisma_campaign, and charisma_analyze.  Returns
/// false, leaving config untouched, when a value is not a number or is one
/// plan_checkpoints cannot schedule: --chkpoint-nodes not a power of two in
/// an int32, a --chkpoint-size, -bw or -mtti that is not positive, an image
/// that rounds to no byte, or a --chkpoint-chunk outside
/// [1, cfs::kMaxRequestBytes].  The CLIs report that as a usage error.
[[nodiscard]] bool apply_checkpoint_flags(const util::Flags& flags,
                                          WorkloadConfig* config);

/// The checkpoint flag names, for util::Flags' known-flag list.
[[nodiscard]] std::vector<std::string> checkpoint_flag_names();

}  // namespace charisma::workload
