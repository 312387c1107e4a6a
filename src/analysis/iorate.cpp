#include "analysis/iorate.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace charisma::analysis {

namespace {

/// Longest timeline accepted: about 20 years of 10-minute buckets.  A saved
/// trace's header bounds and corrected timestamps are outside input, and a
/// longer span means they are corrupt, not that the trace is long.
constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 20;

/// Bucket of `t` on a timeline from `start`; times before `start` clamp
/// into bucket 0.  Unsigned, so no pair of int64 bounds can overflow.
[[nodiscard]] std::uint64_t bucket_of(util::MicroSec t, util::MicroSec start,
                                      util::MicroSec width) noexcept {
  if (t <= start) return 0;
  return (static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(start)) /
         static_cast<std::uint64_t>(width);
}

}  // namespace

IoRateAccumulator::IoRateAccumulator(util::MicroSec trace_start,
                                     util::MicroSec trace_end,
                                     const IoRateConfig& config)
    : start_(trace_start), end_(trace_end) {
  util::check(config.bucket > 0, "bucket width must be positive");
  out_.bucket_width = config.bucket;
}

void IoRateAccumulator::on_record(const trace::Record& r) {
  saw_any_ = true;
  end_ = std::max(end_, r.timestamp);
  if (!r.is_data() || r.bytes <= 0) return;
  // Corrected timestamps can land before trace_start; those clamp into the
  // first bucket.  Nothing lands past end_ because end_ tracks the maximum,
  // so growing the timeline to the record's bucket is the only upper bound
  // needed — finish() pads the quiet tail out to end_.
  const std::uint64_t i = bucket_of(r.timestamp, start_, out_.bucket_width);
  if (i >= kMaxBuckets) {
    throw IoRateBoundError(
        "I/O-rate bucket " + std::to_string(i) + " of a " +
        trace::to_string(r.kind) + " record of job " + std::to_string(r.job) +
        " on node " + std::to_string(r.node) + " at " +
        std::to_string(r.timestamp) + " us is past the timeline's " +
        std::to_string(kMaxBuckets) + " buckets from " +
        std::to_string(start_) + " us: the trace's bounds are corrupt");
  }
  if (i >= out_.timeline.size()) out_.timeline.resize(i + 1);
  auto& b = out_.timeline[i];
  ++b.requests;
  if (r.kind == trace::EventKind::kRead) {
    b.bytes_read += r.bytes;
  } else {
    b.bytes_written += r.bytes;
  }
}

IoRateResult IoRateAccumulator::finish() {
  if (!saw_any_) {
    out_.timeline.clear();
    return std::move(out_);
  }
  const std::uint64_t last = bucket_of(end_, start_, out_.bucket_width);
  if (last >= kMaxBuckets) {
    throw IoRateBoundError(
        "I/O-rate timeline from " + std::to_string(start_) + " us to " +
        std::to_string(end_) + " us ends in bucket " + std::to_string(last) +
        ", past the timeline's " + std::to_string(kMaxBuckets) +
        " buckets: the trace's bounds are corrupt");
  }
  const auto buckets = static_cast<std::size_t>(last + 1);
  out_.timeline.resize(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    out_.timeline[i].start =
        start_ + static_cast<util::MicroSec>(i) * out_.bucket_width;
  }

  const double seconds =
      static_cast<double>(out_.bucket_width) / util::kSecond;
  double total_mb = 0.0;
  std::size_t quiet = 0;
  for (const auto& b : out_.timeline) {
    const double mb =
        static_cast<double>(b.bytes_read + b.bytes_written) / 1e6;
    total_mb += mb;
    out_.peak_mb_per_s = std::max(out_.peak_mb_per_s, mb / seconds);
    if (b.requests == 0) ++quiet;
  }
  out_.mean_mb_per_s = total_mb / (static_cast<double>(buckets) * seconds);
  out_.quiet_fraction =
      static_cast<double>(quiet) / static_cast<double>(buckets);
  return std::move(out_);
}

std::string IoRateResult::render() const {
  std::ostringstream s;
  s << timeline.size() << " buckets of "
    << util::format_duration(bucket_width) << ": mean "
    << util::fmt(mean_mb_per_s, 3) << " MB/s, peak "
    << util::fmt(peak_mb_per_s, 2) << " MB/s (burstiness "
    << util::fmt(burstiness()) << "x), "
    << util::format_percent(quiet_fraction) << " of buckets quiet\n";
  return s.str();
}

}  // namespace charisma::analysis
