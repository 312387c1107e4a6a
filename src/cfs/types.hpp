// Shared vocabulary types for the Concurrent File System model.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "net/hypercube.hpp"
#include "util/units.hpp"

namespace charisma::cfs {

using net::NodeId;
using util::MicroSec;

/// Unique id of a file (inode number).  Never reused, even after deletion,
/// so trace analysis can key on it.
using FileId = std::int32_t;
inline constexpr FileId kNoFile = -1;

/// Job identifier assigned by the workload scheduler.
using JobId = std::int32_t;
inline constexpr JobId kNoJob = -1;

/// Per-client open-file descriptor.
using Fd = std::int32_t;
inline constexpr Fd kBadFd = -1;

/// CFS I/O modes (paper §2.4).
enum class IoMode : std::uint8_t {
  kIndependent = 0,  // mode 0: each process has its own file pointer
  kShared = 1,       // mode 1: one shared pointer, first-come-first-served
  kOrdered = 2,      // mode 2: shared pointer, round-robin node order
  kFixed = 3,        // mode 3: round-robin AND identical access sizes
};

[[nodiscard]] constexpr const char* to_string(IoMode m) noexcept {
  switch (m) {
    case IoMode::kIndependent: return "mode0";
    case IoMode::kShared: return "mode1";
    case IoMode::kOrdered: return "mode2";
    case IoMode::kFixed: return "mode3";
  }
  return "?";
}

/// Open flags (bitmask).
enum OpenFlags : std::uint8_t {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kCreate = 1u << 2,
  kTruncate = 1u << 3,
};

enum class Whence : std::uint8_t { kSet, kCurrent, kEnd };

// Size bounds of the simulated file system, shared by every reader of
// requests (the chwl reader, the trace reader, the CLI flags).  The largest
// request any shipped source makes is about 18 MB and the largest file 385
// MB, so the bounds only ever turn hostile input into a typed error.
/// Bytes one read or write may move: a request walks at most 2^20 4 KB
/// blocks.
inline constexpr std::int64_t kMaxRequestBytes = std::int64_t{1} << 32;
/// Bytes one file may hold: a dense 32-bit block map for it is 64 MiB.
inline constexpr std::int64_t kMaxFileBytes = std::int64_t{1} << 36;
/// The farthest a file pointer may sit.  Past EOF it is legal (a read there
/// moves 0 bytes), but a request of kMaxRequestBytes from it must still end
/// inside int64.
inline constexpr std::int64_t kMaxFileOffset =
    std::numeric_limits<std::int64_t>::max() - kMaxRequestBytes;

/// Result of a data operation, in the terms the tracer records.
///
/// Failure contract: when ok is false, `bytes` is 0, `extended_file` is
/// false, and `completed_at` equals the simulated time the call was made —
/// a failed operation consumes no simulated time, and callers must never
/// see a stale or advanced timestamp on an error path.
struct IoResult {
  bool ok = false;
  std::int64_t offset = 0;       // file offset the operation started at
  std::int64_t bytes = 0;        // bytes actually transferred
  MicroSec completed_at = 0;     // simulated completion time
  bool extended_file = false;    // write grew the file
  std::string error;             // empty when ok
};

struct OpenResult {
  bool ok = false;
  Fd fd = kBadFd;
  FileId file = kNoFile;
  bool created = false;
  MicroSec completed_at = 0;
  std::string error;
};

}  // namespace charisma::cfs
