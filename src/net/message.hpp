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
#include <vector>

#include "util/check.hpp"
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
  /// Payloads of up to one 4 KB block plus a request descriptor of this
  /// many bytes are priced from a table: every message of a block access
  /// (a write's descriptor and data, a read's data, either reply) and every
  /// trace block the collector receives is that small.  Larger payloads use
  /// the formula.  The first message fills the table, so building a model
  /// costs nothing; a model is not shared across threads.
  static constexpr std::int64_t kDescriptorBytes = 64;

  explicit MessageModel(MessageCostParams params = {});

  [[nodiscard]] const MessageCostParams& params() const noexcept {
    return params_;
  }

  /// Number of 4 KB fragments a payload of `bytes` becomes (min 1).
  [[nodiscard]] std::int64_t fragments(std::int64_t bytes) const noexcept;

  /// End-to-end latency of one message of `bytes` over `hops` links.
  [[nodiscard]] MicroSec transfer_time_hops(int hops,
                                            std::int64_t bytes) const {
    CHECK(hops >= 0, "negative hop count ", hops);
    CHECK(bytes >= 0, "negative message size ", bytes);
    const auto index = static_cast<std::uint64_t>(bytes);
    const MicroSec payload = index < payload_times_.size()
                                 ? payload_times_[index]
                                 : untabled_payload_time(bytes);
    return payload + static_cast<MicroSec>(hops) * params_.per_hop;
  }

 private:
  /// Every term of a message's latency but the hops; the table holds its
  /// value for each small payload, so table and formula agree bit for bit.
  [[nodiscard]] MicroSec payload_time(std::int64_t bytes) const;
  /// A payload the table does not hold: fills the table on first use, then
  /// prices `bytes` from it or, past its end, by the formula.
  [[nodiscard]] MicroSec untabled_payload_time(std::int64_t bytes) const;

  MessageCostParams params_;
  mutable std::vector<MicroSec> payload_times_;  // payload_time(b) at b
};

}  // namespace charisma::net
