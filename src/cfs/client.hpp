// CFS client library — the layer a compute-node process links against and
// the layer the CHARISMA tracer instruments (paper §3.1: "high-level CFS
// calls are implemented in a library that is linked with the user's
// program").
//
// Calls are synchronous in simulated time: each returns the operation's
// completion time, computed from the shared-pointer hand-off (modes 1-3),
// the request messages to the involved I/O nodes (one per touched 4 KB
// block), the disk service there, and the reply.  The caller (a
// workload process) schedules its continuation at the returned time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cfs/runtime.hpp"
#include "cfs/types.hpp"

namespace charisma::cfs {

struct ClientParams {
  /// User-level library call overhead.
  MicroSec call_overhead = 150;
  /// Size of a request descriptor message to an I/O node.
  std::int64_t request_message_bytes = 64;
};

class Client {
 public:
  Client(Runtime& runtime, NodeId node, ClientParams params = {});

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] Runtime& runtime() noexcept { return *runtime_; }

  /// Opens `path`; on success the result's fd indexes this client's table.
  OpenResult open(JobId job, const std::string& path, std::uint8_t flags,
                  IoMode mode);
  /// Data operations.  On failure (ok == false) the result carries the
  /// error, zero bytes, and completed_at equal to the simulated time of the
  /// call — a failed operation consumes no simulated time and never reports
  /// a completion in the past or future (tests/cfs/client_test.cpp pins
  /// this for bad descriptors and failed reservations).
  IoResult read(Fd fd, std::int64_t bytes);
  IoResult write(Fd fd, std::int64_t bytes);
  /// The paper's §5 recommendation, implemented: reads `count` elements of
  /// `record` bytes separated by `interval` skipped bytes from the current
  /// pointer (mode 0 only).  One request message goes to each involved
  /// I/O node instead of one per touched block, so a regular pattern costs
  /// O(io-nodes) messages instead of O(elements).
  IoResult read_strided(Fd fd, std::int64_t record, std::int64_t interval,
                        std::int64_t count);
  /// Mode-0 only.  Returns the resulting offset.
  std::optional<std::int64_t> seek(Fd fd, std::int64_t offset, Whence whence);
  /// Returns the file size at close.
  std::optional<std::int64_t> close(Fd fd);
  bool unlink(JobId job, const std::string& path);

  /// File behind an fd (kNoFile when the fd is closed/unknown).
  [[nodiscard]] FileId file_of(Fd fd) const;
  [[nodiscard]] JobId job_of(Fd fd) const;
  [[nodiscard]] std::size_t open_files() const noexcept {
    return open_count_;
  }

  /// Total messages this client sent to I/O nodes (ablation C input).
  [[nodiscard]] std::uint64_t io_messages() const noexcept {
    return io_messages_;
  }

 private:
  struct Handle {
    FileId file = kNoFile;  // kNoFile marks a closed slot
    JobId job = kNoJob;
  };

  static constexpr Fd kFirstFd = 3;  // 0..2 reserved, as in Unix

  /// Live handle behind `fd`, or nullptr if unknown/closed.  Descriptors
  /// are dense and never reused, so the table is a flat vector indexed by
  /// fd - kFirstFd — no hashing on the per-operation path.
  [[nodiscard]] const Handle* find_handle(Fd fd) const noexcept {
    const auto idx = static_cast<std::size_t>(fd - kFirstFd);
    if (fd < kFirstFd || idx >= handles_.size()) return nullptr;
    const Handle& h = handles_[idx];
    return h.file == kNoFile ? nullptr : &h;
  }

  /// Prices the data movement of a granted reservation.
  MicroSec execute(const Handle& h, const Reservation& r, bool is_write);

  Runtime* runtime_;
  NodeId node_;
  ClientParams params_;
  std::vector<Handle> handles_;  // indexed by fd - kFirstFd
  std::size_t open_count_ = 0;
  std::uint64_t io_messages_ = 0;
  // Reusable request-path scratch (see BlockPlan): cleared per operation,
  // capacity retained, so steady-state operations do not allocate.
  BlockPlan plan_scratch_;
  std::vector<std::vector<BlockAccess>> strided_groups_;  // one per I/O node
};

}  // namespace charisma::cfs
