// Shared vocabulary types for the Concurrent File System model.
#pragma once

#include <cstdint>
#include <limits>

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

/// Why a CFS call failed.  Callers branch on the value (the driver retries
/// kOutOfTurn); to_string() gives the message.
enum class IoError : std::uint8_t {
  kNone = 0,
  kBadDescriptor,      // the client knows no open fd by that number
  kNoIntent,           // open without read or write intent
  kNoSuchFile,         // open of a missing path without kCreate
  kModeConflict,       // the job's session holds the file in another mode
  kAlreadyOpen,        // the node already holds the file open
  kNotOpen,            // the node does not hold the file open
  kNotOpenForReading,
  kNotOpenForWriting,
  kNegativeSize,
  kOutOfTurn,          // mode 2: another node's turn; retry later
  kSizeMismatch,       // mode 3: not the session's access size
  kFileTooLarge,       // the write would end past kMaxFileBytes
  kBadStride,          // strided read with bad record/interval/count
  kNotIndependent,     // strided read on a shared pointer
};

[[nodiscard]] constexpr const char* to_string(IoError e) noexcept {
  switch (e) {
    case IoError::kNone: return "no error";
    case IoError::kBadDescriptor: return "bad file descriptor";
    case IoError::kNoIntent: return "open without read or write intent";
    case IoError::kNoSuchFile: return "no such file";
    case IoError::kModeConflict:
      return "conflicting I/O mode within job session";
    case IoError::kAlreadyOpen: return "node already holds this file open";
    case IoError::kNotOpen: return "file not open by this node";
    case IoError::kNotOpenForReading: return "file not open for reading";
    case IoError::kNotOpenForWriting: return "file not open for writing";
    case IoError::kNegativeSize: return "negative request size";
    case IoError::kOutOfTurn: return "mode-2 access out of turn";
    case IoError::kSizeMismatch: return "mode-3 access size mismatch";
    case IoError::kFileTooLarge: return "file too large";
    case IoError::kBadStride: return "bad strided parameters";
    case IoError::kNotIndependent:
      return "strided requests need an independent file pointer (mode 0)";
  }
  return "?";
}

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
  IoError error = IoError::kNone;
};

struct OpenResult {
  bool ok = false;
  Fd fd = kBadFd;
  FileId file = kNoFile;
  bool created = false;
  MicroSec completed_at = 0;
  IoError error = IoError::kNone;
};

}  // namespace charisma::cfs
