#include "cfs/io_node.hpp"

namespace charisma::cfs {

IoNode::IoNode(int id, disk::Disk& disk, IoNodeParams params)
    : id_(id), disk_(&disk), params_(params) {}

MicroSec IoNode::serve_read(MicroSec arrival, std::int64_t disk_offset,
                            std::int64_t bytes) {
  ++requests_;
  ++disk_reads_;
  return disk_->submit(arrival + params_.request_overhead, disk_offset, bytes);
}

MicroSec IoNode::serve_write(MicroSec arrival, std::int64_t disk_offset,
                             std::int64_t bytes) {
  ++requests_;
  ++disk_writes_;
  return disk_->submit(arrival + params_.request_overhead, disk_offset, bytes);
}

}  // namespace charisma::cfs
