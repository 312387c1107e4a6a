// The tests' merged records.  The pipeline never holds a study's records;
// a test that compares them collects the merge's stream with a CollectSink,
// and collect_study() runs core::stream_study with one on its merge and
// keeps the finished trace.  A hand-built record vector reaches a sink the
// way the merge would deliver it through push(); sessions_of(),
// request_sizes_of() and io_rate_of() push one through the merge's own
// accumulators.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/stream_study.hpp"
#include "trace/record.hpp"
#include "trace/spill.hpp"

namespace charisma::trace::fixtures {

/// RecordSink that keeps the pushed stream.
struct CollectSink final : RecordSink {
  std::vector<Record> records;
  void on_start(std::uint64_t n) override { records.reserve(n); }
  void on_record(const Record& r) override { records.push_back(r); }
};

/// Pushes `records` through `sinks` as the merge does: on_start with the
/// count, then every record to each sink in order.
inline void push(const std::vector<Record>& records,
                 const std::vector<RecordSink*>& sinks) {
  for (RecordSink* sink : sinks) sink->on_start(records.size());
  for (const Record& r : records) {
    for (RecordSink* sink : sinks) sink->on_record(r);
  }
}

/// `records` through a SessionAccumulator, finished under the trace bounds
/// [start, end].
[[nodiscard]] inline analysis::SessionStore sessions_of(
    const std::vector<Record>& records, MicroSec start = 0,
    MicroSec end = 0) {
  analysis::SessionAccumulator sessions;
  push(records, {&sessions});
  TraceHeader header;
  header.trace_start = start;
  header.trace_end = end;
  return sessions.take(header);
}

/// `records` through a RequestSizeAccumulator.
[[nodiscard]] inline analysis::RequestSizeResult request_sizes_of(
    const std::vector<Record>& records) {
  analysis::RequestSizeAccumulator sizes;
  push(records, {&sizes});
  return sizes.finish();
}

/// `records` through an IoRateAccumulator over the trace bounds
/// [start, end].
[[nodiscard]] inline analysis::IoRateResult io_rate_of(
    const std::vector<Record>& records, MicroSec start, MicroSec end,
    const analysis::IoRateConfig& config = {}) {
  analysis::IoRateAccumulator rate(start, end, config);
  push(records, {&rate});
  return rate.finish();
}

/// One study's streamed output, its merged records and its finished trace.
struct CollectedStudy {
  core::StreamedStudyOutput out;
  /// Every record in the merge's order, clock-corrected.
  std::vector<Record> records;
  /// The finished raw trace (save() writes it as a `.chtr`).
  SpilledTrace trace;
};

/// Runs `config` through core::stream_study with a CollectSink on its
/// merge.
[[nodiscard]] inline CollectedStudy collect_study(
    const core::StudyConfig& config) {
  CollectedStudy s;
  CollectSink collect;
  s.trace = core::stream_study(config, {}, s.out, {&collect});
  s.records = std::move(collect.records);
  return s;
}

/// collect_study() at a workload scale and seed, the rest at the defaults.
[[nodiscard]] inline CollectedStudy collect_study_at_scale(
    double scale, std::uint64_t seed = 42) {
  core::StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return collect_study(config);
}

}  // namespace charisma::trace::fixtures
