// Collective ("disk-directed") I/O ablation.
//
// The paper's last recommendation (§5): "For some applications, collective
// I/O requests can lead to even better performance [Kotz, disk-directed
// I/O]".  The idea: when all nodes of a job access one file together, hand
// the whole access list to the I/O nodes and let each service its blocks in
// DISK order instead of request-arrival order.  This module replays each
// (job, file) session's block stream — read from the replay ops the cache
// simulations replay — against the disk model both ways and reports the
// positioning-cost reduction.
#pragma once

#include <cstdint>
#include <string>

#include "cache/replay.hpp"
#include "disk/disk.hpp"

namespace charisma::core {

struct CollectiveConfig {
  int io_nodes = 10;
  disk::DiskParams disk;
  /// Sessions with fewer block accesses than this are not worth batching.
  std::size_t min_blocks = 8;
};

struct CollectiveStats {
  std::uint64_t sessions = 0;       // sessions large enough to batch
  std::uint64_t block_accesses = 0;
  util::MicroSec disk_time_arrival = 0;   // service in request order
  util::MicroSec disk_time_directed = 0;  // service in disk order
  std::uint64_t discontiguities_arrival = 0;  // head repositionings
  std::uint64_t discontiguities_directed = 0;

  [[nodiscard]] double time_reduction() const noexcept {
    return disk_time_arrival
               ? 1.0 - static_cast<double>(disk_time_directed) /
                           static_cast<double>(disk_time_arrival)
               : 0.0;
  }
  [[nodiscard]] std::string render() const;
};

/// Replays every (job, file) data stream of `ops` — the reads and writes
/// that move bytes, in merge order — through the disk model in arrival
/// order and in disk-directed (sorted) order.
[[nodiscard]] CollectiveStats analyze_disk_directed(
    const cache::ReplayLog& ops, const CollectiveConfig& config);

}  // namespace charisma::core
