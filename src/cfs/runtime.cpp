#include "cfs/runtime.hpp"

#include "util/check.hpp"

namespace charisma::cfs {

Runtime::Runtime(ipsc::Machine& machine, RuntimeParams params)
    : machine_(&machine),
      fs_([&] {
        params.fs.io_nodes = machine.io_nodes();
        params.fs.disk_capacity = machine.config().disk.capacity_bytes;
        return params.fs;
      }()) {
  io_nodes_.reserve(static_cast<std::size_t>(machine.io_nodes()));
  for (int i = 0; i < machine.io_nodes(); ++i) {
    io_nodes_.push_back(
        std::make_unique<IoNode>(i, machine.disk(i), params.io));
  }
}

IoNode& Runtime::io_node(int i) {
  CHECK(i >= 0 && static_cast<std::size_t>(i) < io_nodes_.size(),
        "I/O node out of range");
  return *io_nodes_[static_cast<std::size_t>(i)];
}

}  // namespace charisma::cfs
