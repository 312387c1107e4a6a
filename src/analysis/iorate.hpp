// I/O-rate timeline analysis.
//
// Not one of the paper's own figures, but the style of characterization the
// paper cites from Pasquale & Polyzos and Cypher et al. (temporal patterns
// in the I/O rate): data volume moved per time bucket over the traced
// period, split by reads and writes, plus burstiness statistics.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/spill.hpp"
#include "util/stats.hpp"

namespace charisma::analysis {

struct IoRateConfig {
  /// Timeline bucket width.
  util::MicroSec bucket = 10 * util::kMinute;
};

struct IoRateResult {
  struct Bucket {
    util::MicroSec start = 0;
    std::int64_t bytes_read = 0;
    std::int64_t bytes_written = 0;
    std::uint64_t requests = 0;
  };
  std::vector<Bucket> timeline;
  util::MicroSec bucket_width = 0;
  double mean_mb_per_s = 0.0;
  double peak_mb_per_s = 0.0;
  /// Peak-to-mean ratio: > ~3 indicates a bursty, phase-structured load.
  [[nodiscard]] double burstiness() const noexcept {
    return mean_mb_per_s > 0.0 ? peak_mb_per_s / mean_mb_per_s : 0.0;
  }
  /// Fraction of buckets with no I/O at all.
  double quiet_fraction = 0.0;

  [[nodiscard]] std::string render() const;
};

/// A trace the I/O-rate timeline cannot hold: a record (or the trace's end)
/// lies more buckets past the trace's start than a timeline may have, about
/// 20 years of 10-minute buckets.  The bounds come from outside input — a
/// saved trace's header and timestamps, a replay log's think times — so this
/// is an error to report, not a broken invariant.
class IoRateBoundError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The I/O-rate timeline as a sink on the postprocessing merge: the
/// timeline grows one bucket at a time as records arrive, so resident state
/// is the timeline (small — one entry per bucket of the traced period),
/// never the trace.
class IoRateAccumulator final : public trace::RecordSink {
 public:
  /// `trace_start`/`trace_end` are the header bounds; the end grows if a
  /// corrected timestamp lands past it.
  IoRateAccumulator(util::MicroSec trace_start, util::MicroSec trace_end,
                    const IoRateConfig& config = {});
  /// Throws IoRateBoundError, naming the record, when its bucket is past
  /// the longest timeline.
  void on_record(const trace::Record& r) override;
  /// Finalizes bucket starts and the rate statistics.  Call once.  Throws
  /// IoRateBoundError when the trace's end is past the longest timeline.
  [[nodiscard]] IoRateResult finish();

 private:
  util::MicroSec start_ = 0;
  util::MicroSec end_ = 0;
  bool saw_any_ = false;
  IoRateResult out_;
};

}  // namespace charisma::analysis
