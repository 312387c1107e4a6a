// The study with random access to its records: the one pipeline of
// core/stream_study.hpp plus a trace::MaterializeSink on its merge, for the
// analyses that index the record vector (the strided and collective-I/O
// ablations, the tests that compare records).
#pragma once

#include <cstdint>

#include "core/stream_study.hpp"
#include "trace/postprocess.hpp"
#include "trace/spill.hpp"

namespace charisma::core {

struct StudyOutput : StreamedStudyOutput {
  /// Every record, clock-corrected, in the merge's order.
  trace::SortedTrace sorted;
  /// The finished raw trace (header, block index and payloads); read_block
  /// decodes its blocks, save() writes it as a trace file.
  trace::SpilledTrace trace;
};

/// Runs the full study through stream_study and materializes its merge.
/// The merge also spills `replay_ops`, as every streamed study does; cache
/// simulations replay those through a cache::SweepRunner.  Deterministic in
/// `config`.
[[nodiscard]] StudyOutput run_study(const StudyConfig& config);

/// Convenience used by tests: a study at the given workload scale with
/// everything else at the NAS defaults.
[[nodiscard]] StudyOutput run_study_at_scale(double scale,
                                             std::uint64_t seed = 42);

}  // namespace charisma::core
