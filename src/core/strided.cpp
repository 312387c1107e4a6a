#include "core/strided.hpp"

#include <algorithm>
#include <sstream>

#include "util/table.hpp"

namespace charisma::core {

using trace::EventKind;
using trace::Record;

namespace {

/// Distinct I/O nodes a byte range touches under one-block round-robin
/// striping.
std::int64_t io_nodes_touched(std::int64_t offset, std::int64_t bytes,
                              std::int64_t block_size, int io_nodes) {
  if (bytes <= 0) return 0;
  const std::int64_t first = offset / block_size;
  const std::int64_t last = (offset + bytes - 1) / block_size;
  return std::min<std::int64_t>(last - first + 1, io_nodes);
}

}  // namespace

void StridedRewriter::flush(Run& run) {
  if (!run.active) return;
  ++out_.strided_requests;
  if (run.count >= 2) ++out_.runs_of_two_or_more;
  out_.longest_run =
      std::max(out_.longest_run, static_cast<std::uint64_t>(run.count));
  // One strided descriptor reaches each I/O node holding any element.
  const std::int64_t span =
      (run.count - 1) * (run.record + run.interval) + run.record;
  out_.strided_messages += static_cast<std::uint64_t>(
      io_nodes_touched(run.start_offset, span, block_size_, io_nodes_));
  run = Run{};
}

void StridedRewriter::on_record(const Record& r) {
  const bool is_read = r.kind == EventKind::kRead;
  if ((!is_read && r.kind != EventKind::kWrite) || r.bytes <= 0) return;
  ++out_.original_requests;
  out_.original_messages += static_cast<std::uint64_t>(
      (r.offset + r.bytes - 1) / block_size_ - r.offset / block_size_ + 1);

  Run& run = streams_[{r.job, r.file, r.node, is_read}];
  if (run.active) {
    const std::int64_t gap = r.offset - run.last_end;
    const bool same_record = r.bytes == run.record;
    if (same_record && gap >= 0 &&
        (!run.interval_known || gap == run.interval) &&
        (run.count >= 2 ? gap == run.interval : true)) {
      if (run.count == 1) {
        run.interval = gap;
        run.interval_known = true;
      }
      ++run.count;
      run.last_end = r.offset + r.bytes;
      return;
    }
    // Pattern broke: emit the finished run, start a new one.
    flush(run);
  }
  run.active = true;
  run.start_offset = r.offset;
  run.record = r.bytes;
  run.count = 1;
  run.last_end = r.offset + r.bytes;
}

StridedStats StridedRewriter::finish() {
  for (auto& [key, run] : streams_) flush(run);
  return out_;
}

std::string StridedStats::render() const {
  util::Table t({"metric", "conventional", "strided", "reduction"});
  t.add_row({"requests", std::to_string(original_requests),
             std::to_string(strided_requests),
             util::fmt(request_reduction() * 100.0) + "%"});
  t.add_row({"I/O-node messages", std::to_string(original_messages),
             std::to_string(strided_messages),
             util::fmt(message_reduction() * 100.0) + "%"});
  std::ostringstream s;
  s << t.render();
  s << runs_of_two_or_more << " regular runs collapsed; longest run "
    << longest_run << " requests\n";
  return s.str();
}

}  // namespace charisma::core
