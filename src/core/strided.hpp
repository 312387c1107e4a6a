// Strided-I/O ablation (paper §5).
//
// The paper's closing recommendation: "it would be better to support strided
// I/O requests ... A strided request can express a regular request and
// interval size (which were common in our workload), effectively increasing
// the request size [and] lowering overhead."  This module measures exactly
// that: it re-expresses each node's per-file request stream as maximal
// (offset, record, interval, count) strided requests and counts how many
// requests and I/O-node messages disappear.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "trace/spill.hpp"

namespace charisma::core {

struct StridedRequest {
  std::int64_t offset = 0;
  std::int64_t record = 0;    // bytes per element
  std::int64_t interval = 0;  // bytes skipped between elements
  std::int64_t count = 0;
};

struct StridedStats {
  std::uint64_t original_requests = 0;
  std::uint64_t strided_requests = 0;
  std::uint64_t original_messages = 0;  // one per touched block (CFS)
  std::uint64_t strided_messages = 0;   // one per involved I/O node per request
  std::uint64_t runs_of_two_or_more = 0;
  std::uint64_t longest_run = 0;

  [[nodiscard]] double request_reduction() const noexcept {
    return original_requests
               ? 1.0 - static_cast<double>(strided_requests) /
                           static_cast<double>(original_requests)
               : 0.0;
  }
  [[nodiscard]] double message_reduction() const noexcept {
    return original_messages
               ? 1.0 - static_cast<double>(strided_messages) /
                           static_cast<double>(original_messages)
               : 0.0;
  }
  [[nodiscard]] std::string render() const;
};

/// Greedy maximal-run rewriting of every (job, file, node) data stream, as
/// a sink on the postprocessing merge: feed it the merged records, then
/// finish() once.
class StridedRewriter final : public trace::RecordSink {
 public:
  StridedRewriter(int io_nodes, std::int64_t block_size)
      : io_nodes_(io_nodes), block_size_(block_size) {}
  void on_record(const trace::Record& r) override;
  /// Closes every stream's open run and returns the totals.
  [[nodiscard]] StridedStats finish();

 private:
  struct Run {
    bool active = false;
    std::int64_t start_offset = 0;
    std::int64_t record = 0;
    std::int64_t interval = 0;  // valid from the third element on
    bool interval_known = false;
    std::int64_t count = 0;
    std::int64_t last_end = 0;
  };
  void flush(Run& run);

  int io_nodes_;
  std::int64_t block_size_;
  StridedStats out_;
  std::map<std::tuple<cfs::JobId, cfs::FileId, cfs::NodeId, bool>, Run>
      streams_;
};

}  // namespace charisma::core
