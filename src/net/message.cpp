#include "net/message.hpp"

#include <cmath>

namespace charisma::net {

MessageModel::MessageModel(MessageCostParams params) : params_(params) {
  CHECK(params_.fragment_bytes > 0, "fragment size ", params_.fragment_bytes,
        " must be positive");
}

std::int64_t MessageModel::fragments(std::int64_t bytes) const noexcept {
  if (bytes <= 0) return 1;
  return (bytes + params_.fragment_bytes - 1) / params_.fragment_bytes;
}

MicroSec MessageModel::payload_time(std::int64_t bytes) const {
  const double byte_time = params_.per_byte * static_cast<double>(bytes);
  return params_.software_overhead + fragments(bytes) * params_.per_fragment +
         static_cast<MicroSec>(std::llround(byte_time));
}

MicroSec MessageModel::untabled_payload_time(std::int64_t bytes) const {
  constexpr std::int64_t kTabled = util::kBlockSize + kDescriptorBytes;
  if (payload_times_.empty()) {
    payload_times_.resize(static_cast<std::size_t>(kTabled) + 1);
    for (std::int64_t b = 0; b <= kTabled; ++b) {
      payload_times_[static_cast<std::size_t>(b)] = payload_time(b);
    }
  }
  return bytes <= kTabled ? payload_times_[static_cast<std::size_t>(bytes)]
                          : payload_time(bytes);
}

}  // namespace charisma::net
