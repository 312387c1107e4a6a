#include "ipsc/machine.hpp"

#include <bit>

#include "util/check.hpp"

namespace charisma::ipsc {

MachineConfig MachineConfig::nas_ames() { return MachineConfig{}; }

MachineConfig MachineConfig::tiny() {
  MachineConfig c;
  c.compute_nodes = 8;
  c.io_nodes = 2;
  return c;
}

Machine::Machine(sim::Engine& engine, const MachineConfig& config,
                 util::Rng& rng)
    : engine_(&engine),
      config_(config),
      cube_(net::Hypercube::dimension_for(config.compute_nodes)),
      messages_(config.net) {
  CHECK(config.compute_nodes >= 1, "need at least one compute node");
  CHECK(config.io_nodes >= 1, "need at least one I/O node");
  CHECK(config.io_nodes <= config.compute_nodes,
        "more I/O nodes than compute-node taps");
  clocks_.reserve(static_cast<std::size_t>(config.compute_nodes));
  for (NodeId n = 0; n < config.compute_nodes; ++n) {
    clocks_.push_back(sim::DriftingClock::random(
        rng, engine.now(), config.max_clock_drift_ppm,
        config.max_clock_offset));
  }
  disks_.reserve(static_cast<std::size_t>(config.io_nodes));
  for (int d = 0; d < config.io_nodes; ++d) {
    disks_.emplace_back(config.disk);
  }
  // Spread taps evenly over the cube.
  const NodeId stride = config.compute_nodes / config.io_nodes;
  io_taps_.reserve(static_cast<std::size_t>(config.io_nodes));
  for (int d = 0; d < config.io_nodes; ++d) {
    io_taps_.push_back(static_cast<NodeId>(d) * (stride > 0 ? stride : 1));
  }
  // Every node and tap is on the cube, so the hop count is the Hamming
  // distance Hypercube::hops would check and return.
  io_hops_.resize(static_cast<std::size_t>(config.compute_nodes) *
                  static_cast<std::size_t>(config.io_nodes));
  std::size_t i = 0;
  for (NodeId n = 0; n < config.compute_nodes; ++n) {
    for (const NodeId tap : io_taps_) {
      io_hops_[i++] = static_cast<std::uint8_t>(
          std::popcount(static_cast<std::uint32_t>(n ^ tap)) + 1);
    }
  }
}

const sim::DriftingClock& Machine::clock(NodeId node) const {
  CHECK(node >= 0 && node < config_.compute_nodes,
        "compute node out of range");
  return clocks_[static_cast<std::size_t>(node)];
}

disk::Disk& Machine::disk(int io_node) {
  CHECK(io_node >= 0 && io_node < config_.io_nodes,
        "I/O node out of range");
  return disks_[static_cast<std::size_t>(io_node)];
}

NodeId Machine::io_tap(int io_node) const {
  CHECK(io_node >= 0 && io_node < config_.io_nodes,
        "I/O node out of range");
  return io_taps_[static_cast<std::size_t>(io_node)];
}

MicroSec Machine::compute_to_service(NodeId from, std::int64_t bytes) const {
  return messages_.transfer_time_hops(cube_.hops(from, service_tap()) + 1,
                                      bytes);
}

}  // namespace charisma::ipsc
