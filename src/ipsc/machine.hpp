// The iPSC/860 machine model.
//
// Assembles the substrates into the machine the paper traced: compute nodes
// on a hypercube, dedicated I/O nodes each tapped onto a single compute node
// (they are NOT on the hypercube proper — paper §2.4), one service node for
// the Ethernet/host connection, per-node clocks synchronized at startup that
// then drift, and one disk per I/O node.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/disk.hpp"
#include "net/hypercube.hpp"
#include "net/message.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace charisma::ipsc {

using net::NodeId;
using util::MicroSec;

struct MachineConfig {
  NodeId compute_nodes = 128;
  int io_nodes = 10;
  net::MessageCostParams net;
  disk::DiskParams disk;
  double max_clock_drift_ppm = 150.0;   // "drifts significantly" (§3.2)
  MicroSec max_clock_offset = 2000;     // residual skew after startup sync

  /// The NAS Ames machine from the paper: 128 compute nodes (8 MB), 10 I/O
  /// nodes (4 MB, one 760 MB disk each), one service node.
  [[nodiscard]] static MachineConfig nas_ames();
  /// A small machine for unit tests.
  [[nodiscard]] static MachineConfig tiny();
};

class Machine {
 public:
  Machine(sim::Engine& engine, const MachineConfig& config, util::Rng& rng);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] NodeId compute_nodes() const noexcept {
    return config_.compute_nodes;
  }
  [[nodiscard]] int io_nodes() const noexcept { return config_.io_nodes; }
  [[nodiscard]] const net::Hypercube& cube() const noexcept { return cube_; }

  /// The clock of a compute node (the collector on the service node reads
  /// engine time directly — it is the reference).
  [[nodiscard]] const sim::DriftingClock& clock(NodeId node) const;
  [[nodiscard]] disk::Disk& disk(int io_node);

  /// Compute node that an I/O node is tapped onto.
  [[nodiscard]] NodeId io_tap(int io_node) const;
  /// Compute node the service node is tapped onto.
  [[nodiscard]] NodeId service_tap() const noexcept { return 0; }

  /// Message latencies.  I/O and service traffic pays the cube route to the
  /// tap plus one tap hop.  compute_to_io runs for every request and reply
  /// of every block access, so it reads the hop count from a table built
  /// once per machine.
  [[nodiscard]] MicroSec compute_to_io(NodeId from, int io_node,
                                       std::int64_t bytes) const {
    CHECK(from >= 0 && from < config_.compute_nodes && io_node >= 0 &&
              io_node < config_.io_nodes,
          "compute_to_io(", from, ", ", io_node, ") out of range");
    return messages_.transfer_time_hops(
        io_hops_[static_cast<std::size_t>(from) *
                     static_cast<std::size_t>(config_.io_nodes) +
                 static_cast<std::size_t>(io_node)],
        bytes);
  }
  [[nodiscard]] MicroSec compute_to_service(NodeId from,
                                            std::int64_t bytes) const;

  [[nodiscard]] const net::MessageModel& messages() const noexcept {
    return messages_;
  }

 private:
  sim::Engine* engine_;
  MachineConfig config_;
  net::Hypercube cube_;
  net::MessageModel messages_;
  std::vector<sim::DriftingClock> clocks_;
  std::vector<disk::Disk> disks_;
  std::vector<NodeId> io_taps_;  // tap node per I/O node, computed once
  // Hops from each compute node to each I/O node, tap hop included:
  // io_hops_[from * io_nodes + io_node].
  std::vector<std::uint8_t> io_hops_;
};

}  // namespace charisma::ipsc
