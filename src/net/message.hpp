// Message cost model for the iPSC/860 interconnect.
//
// Large messages are broken into 4 KB fragments by the hardware (paper
// §3.1 relies on this: the tracer's per-node buffer is exactly one fragment).
// We charge a fixed per-message software overhead, a per-fragment overhead,
// a per-hop wormhole latency, and a per-byte transfer time.  The defaults
// approximate published iPSC/860 numbers (~75 us latency, ~2.8 MB/s per
// link); absolute values only scale simulated wall-clock.
#pragma once

#include <cstdint>

#include "net/hypercube.hpp"
#include "util/units.hpp"

namespace charisma::net {

using util::MicroSec;

struct MessageCostParams {
  MicroSec software_overhead = 60;  // send+receive call overhead
  MicroSec per_fragment = 15;       // fragment setup
  MicroSec per_hop = 2;             // wormhole routing per hop
  double per_byte = 0.35;           // us/byte (~2.8 MB/s links)
  std::int64_t fragment_bytes = util::kBlockSize;
};

class MessageModel {
 public:
  explicit MessageModel(const Hypercube& cube,
                        MessageCostParams params = {}) noexcept
      : cube_(&cube), params_(params) {}

  [[nodiscard]] const MessageCostParams& params() const noexcept {
    return params_;
  }

  /// Number of 4 KB fragments a payload of `bytes` becomes (min 1).
  [[nodiscard]] std::int64_t fragments(std::int64_t bytes) const noexcept;

  /// End-to-end latency of one message of `bytes` from `from` to `to`.
  [[nodiscard]] MicroSec transfer_time(NodeId from, NodeId to,
                                       std::int64_t bytes) const;

  /// Transfer time given an explicit hop count (for links that are not part
  /// of the cube proper, e.g. the compute-node <-> I/O-node tap).
  [[nodiscard]] MicroSec transfer_time_hops(int hops,
                                            std::int64_t bytes) const;

 private:
  const Hypercube* cube_;
  MessageCostParams params_;
};

}  // namespace charisma::net
