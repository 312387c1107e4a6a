#include "net/message.hpp"

#include <cmath>

#include "util/check.hpp"

namespace charisma::net {

std::int64_t MessageModel::fragments(std::int64_t bytes) const noexcept {
  if (bytes <= 0) return 1;
  return (bytes + params_.fragment_bytes - 1) / params_.fragment_bytes;
}

MicroSec MessageModel::transfer_time(NodeId from, NodeId to,
                                     std::int64_t bytes) const {
  return transfer_time_hops(cube_->hops(from, to), bytes);
}

MicroSec MessageModel::transfer_time_hops(int hops,
                                          std::int64_t bytes) const {
  util::check(hops >= 0, "negative hop count");
  util::check(bytes >= 0, "negative message size");
  const std::int64_t frags = fragments(bytes);
  const double byte_time = params_.per_byte * static_cast<double>(bytes);
  return params_.software_overhead + frags * params_.per_fragment +
         static_cast<MicroSec>(hops) * params_.per_hop +
         static_cast<MicroSec>(std::llround(byte_time));
}

}  // namespace charisma::net
