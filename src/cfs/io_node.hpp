// CFS I/O-node server.
//
// Each I/O node owns one disk and serves every block request from it.  The
// paper's buffer caches (§2.4: "Only the I/O nodes have a buffer cache")
// are studied by the trace-driven simulations in src/cache (Figures 8 and
// 9); the running system models none, so no study's timing depends on one.
#pragma once

#include <cstdint>

#include "cfs/types.hpp"
#include "disk/disk.hpp"
#include "util/units.hpp"

namespace charisma::cfs {

struct IoNodeParams {
  /// Server CPU time to handle one block request.
  MicroSec request_overhead = 300;
};

class IoNode {
 public:
  IoNode(int id, disk::Disk& disk, IoNodeParams params = {});

  [[nodiscard]] int id() const noexcept { return id_; }

  /// Services `bytes` at `disk_offset`, arriving at `arrival`: the request
  /// overhead, then the disk.  Returns the completion time.
  MicroSec serve_read(MicroSec arrival, std::int64_t disk_offset,
                      std::int64_t bytes);
  MicroSec serve_write(MicroSec arrival, std::int64_t disk_offset,
                       std::int64_t bytes);

  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
  /// Always 0: the running system has no I/O-node cache.  Kept only
  /// because perfbench's traced iteration still reports it
  /// (cfs.ionode_hits).
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t disk_reads() const noexcept { return disk_reads_; }
  [[nodiscard]] std::uint64_t disk_writes() const noexcept {
    return disk_writes_;
  }

 private:
  int id_;
  disk::Disk* disk_;
  IoNodeParams params_;
  std::uint64_t requests_ = 0;
  std::uint64_t disk_reads_ = 0;
  std::uint64_t disk_writes_ = 0;
};

}  // namespace charisma::cfs
