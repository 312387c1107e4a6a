#include "disk/disk.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace charisma::disk {

MicroSec Disk::service_time(std::int64_t offset,
                            std::int64_t bytes) const noexcept {
  MicroSec t = params_.controller_overhead;
  if (head_ != offset) {
    // Scale the seek with the fraction of the disk crossed, plus a half
    // rotation to reach the sector.  A contiguous request skips both.
    const double span = params_.capacity_bytes > 0
                            ? std::abs(static_cast<double>(offset - std::max<std::int64_t>(head_, 0))) /
                                  static_cast<double>(params_.capacity_bytes)
                            : 0.0;
    const double seek =
        static_cast<double>(params_.average_seek) * std::sqrt(std::min(1.0, span));
    t += static_cast<MicroSec>(std::llround(seek));
    t += params_.rotation / 2;
  }
  if (params_.bytes_per_us > 0.0) {
    t += static_cast<MicroSec>(
        std::llround(static_cast<double>(bytes) / params_.bytes_per_us));
  }
  return t;
}

MicroSec Disk::submit(MicroSec now, std::int64_t offset, std::int64_t bytes) {
  CHECK(now >= 0 && offset >= 0 && bytes >= 0, "bad disk request");
  const MicroSec start = std::max(now, free_at_);
  const MicroSec service = service_time(offset, bytes);
  free_at_ = start + service;
  head_ = offset + bytes;
  ++requests_;
  bytes_ += bytes;
  busy_ += service;
  return free_at_;
}

double Disk::utilization(MicroSec now) const noexcept {
  if (now <= 0) return 0.0;
  return std::min(1.0, static_cast<double>(busy_) / static_cast<double>(now));
}

}  // namespace charisma::disk
