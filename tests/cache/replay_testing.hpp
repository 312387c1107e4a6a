// The cache tests' op sources.  spill_of / log_of feed trace records through
// the production path — ReplayOpSink, its spill, ReplayLog(spill, read_only)
// — as a study's merge does.  reference_ops is an independent filter that
// shares no code with that path; wrapped in ReplayLog(std::vector<ReplayOp>),
// it is the reference the differential tests hold the production path to.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "cache/replay.hpp"
#include "trace/record.hpp"
#include "trace/spill.hpp"

namespace charisma::cache::fixtures {

/// A memory tier no test stream outgrows: every chunk stays resident and
/// the log decodes once, as a default-budget study's does.
inline constexpr std::int64_t kResidentBudget = std::int64_t{1} << 30;

/// `records` through a ReplayOpSink under a `budget_bytes` memory tier
/// (0: every chunk on disk).  A runner consumes its spill, so each runner
/// needs a spill of its own.
[[nodiscard]] inline ReplayOpSpill spill_of(
    const std::vector<trace::Record>& records,
    std::int64_t budget_bytes = kResidentBudget) {
  trace::SpillBudget budget(budget_bytes);
  ReplayOpSinkOptions options;
  options.budget = &budget;
  ReplayOpSink sink(options);
  for (const trace::Record& r : records) sink.on_record(r);
  return sink.finish();
}

/// spill_of(records) read back with the read-only flags resolved against
/// `read_only`: the op log every simulator replays.
[[nodiscard]] inline ReplayLog log_of(
    const std::vector<trace::Record>& records,
    const std::set<SessionKey>& read_only = {}) {
  return ReplayLog(spill_of(records), read_only);
}

/// The reference filter: reads and writes with positive byte counts, each
/// flagged by a plain set lookup.
[[nodiscard]] inline std::vector<detail::ReplayOp> reference_ops(
    const std::vector<trace::Record>& records,
    const std::set<SessionKey>& read_only) {
  std::vector<detail::ReplayOp> ops;
  for (const trace::Record& r : records) {
    if (!r.is_data() || r.bytes <= 0) continue;
    detail::ReplayOp op{r.file,  r.job,
                        r.node,  r.offset,
                        r.bytes, r.kind == trace::EventKind::kRead,
                        false};
    op.read_only_session =
        read_only.find({op.job, op.file}) != read_only.end();
    ops.push_back(op);
  }
  return ops;
}

}  // namespace charisma::cache::fixtures
