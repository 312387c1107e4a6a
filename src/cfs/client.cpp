#include "cfs/client.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace charisma::cfs {

Client::Client(Runtime& runtime, NodeId node, ClientParams params)
    : runtime_(&runtime), node_(node), params_(params) {
  util::check(node >= 0 && node < runtime.machine().compute_nodes(),
              "client node out of range");
}

OpenResult Client::open(JobId job, const std::string& path,
                        std::uint8_t flags, IoMode mode) {
  auto& engine = runtime_->machine().engine();
  OpenResult r = runtime_->fs().open(job, node_, path, flags, mode,
                                     engine.now());
  if (!r.ok) return r;
  const Fd fd = kFirstFd + static_cast<Fd>(handles_.size());
  handles_.push_back(Handle{r.file, job});
  ++open_count_;
  r.fd = fd;
  // Metadata round-trip to I/O node 0 (the directory server in CFS).
  r.completed_at = engine.now() + params_.call_overhead +
                   runtime_->machine().compute_to_io(
                       node_, 0, params_.request_message_bytes) *
                       2;
  return r;
}

MicroSec Client::execute(const Handle& h, const Reservation& r,
                         bool is_write) {
  auto& machine = runtime_->machine();
  const MicroSec start = r.not_before + params_.call_overhead;
  if (r.bytes == 0) return start;

  MicroSec completion = start;
  plan_scratch_.clear();
  runtime_->fs().plan_into(h.file, r.offset, r.bytes, plan_scratch_);
  for (const BlockAccess& a : plan_scratch_) {
    ++io_messages_;
    // Request descriptor to the I/O node (plus the data for writes).
    const std::int64_t outbound =
        params_.request_message_bytes + (is_write ? a.bytes : 0);
    const MicroSec arrival =
        start + machine.compute_to_io(node_, a.io_node, outbound);
    IoNode& server = runtime_->io_node(a.io_node);
    const MicroSec served =
        is_write ? server.serve_write(arrival, a.disk_offset, a.bytes)
                 : server.serve_read(arrival, a.disk_offset, a.bytes);
    // Reply (with the data for reads).
    const std::int64_t inbound = is_write ? 32 : a.bytes;
    completion = std::max(
        completion, served + machine.compute_to_io(node_, a.io_node, inbound));
  }
  return completion;
}

IoResult Client::read(Fd fd, std::int64_t bytes) {
  IoResult result;
  auto& engine = runtime_->machine().engine();
  result.completed_at = engine.now();
  const Handle* h = find_handle(fd);
  if (h == nullptr) {
    result.error = "bad file descriptor";
    return result;
  }
  Reservation r = runtime_->fs().reserve_read(h->job, node_, h->file, bytes,
                                              engine.now());
  if (!r.ok) {
    result.error = r.error;
    return result;
  }
  result.ok = true;
  result.offset = r.offset;
  result.bytes = r.bytes;
  result.completed_at = execute(*h, r, /*is_write=*/false);
  return result;
}

IoResult Client::write(Fd fd, std::int64_t bytes) {
  IoResult result;
  auto& engine = runtime_->machine().engine();
  result.completed_at = engine.now();
  const Handle* h = find_handle(fd);
  if (h == nullptr) {
    result.error = "bad file descriptor";
    return result;
  }
  Reservation r = runtime_->fs().reserve_write(h->job, node_, h->file, bytes,
                                               engine.now());
  if (!r.ok) {
    result.error = r.error;
    return result;
  }
  result.ok = true;
  result.offset = r.offset;
  result.bytes = r.bytes;
  result.extended_file = r.extends_file;
  result.completed_at = execute(*h, r, /*is_write=*/true);
  return result;
}

IoResult Client::read_strided(Fd fd, std::int64_t record,
                              std::int64_t interval, std::int64_t count) {
  IoResult result;
  auto& machine = runtime_->machine();
  auto& engine = machine.engine();
  // Error contract (client.hpp): a failed call reports the call time itself
  // as completed_at — never a stale or advanced timestamp — and zero bytes.
  result.completed_at = engine.now();
  const Handle* h = find_handle(fd);
  if (h == nullptr) {
    result.error = "bad file descriptor";
    return result;
  }
  auto& fs = runtime_->fs();
  Reservation r = fs.reserve_strided_read(h->job, node_, h->file, record,
                                          interval, count, engine.now());
  if (!r.ok) {
    result.error = r.error;
    return result;
  }
  result.ok = true;
  result.offset = r.offset;
  result.bytes = r.bytes;
  const MicroSec start = r.not_before + params_.call_overhead;
  result.completed_at = start;
  if (r.bytes == 0) return result;

  // Gather every element's block accesses, then group by I/O node: ONE
  // strided descriptor message per involved I/O node (that is the point).
  // The machine has ~10 I/O nodes, so the grouping is a flat bucket per
  // node — reused across calls — instead of a per-call ordered map.
  plan_scratch_.clear();
  std::int64_t remaining = r.bytes;
  for (std::int64_t k = 0; k < count && remaining > 0; ++k) {
    const std::int64_t elem = r.offset + k * (record + interval);
    const std::int64_t take = std::min(record, remaining);
    fs.plan_into(h->file, elem, take, plan_scratch_);
    remaining -= take;
  }
  const auto io_count = static_cast<std::size_t>(runtime_->io_node_count());
  if (strided_groups_.size() < io_count) strided_groups_.resize(io_count);
  for (auto& group : strided_groups_) group.clear();
  for (const BlockAccess& a : plan_scratch_) {
    strided_groups_[static_cast<std::size_t>(a.io_node)].push_back(a);
  }
  // Ascending I/O-node order, element order within a node — the same
  // iteration order the ordered-map grouping produced.
  for (std::size_t io = 0; io < io_count; ++io) {
    const auto& accesses = strided_groups_[io];
    if (accesses.empty()) continue;
    ++io_messages_;
    const MicroSec arrival =
        start + machine.compute_to_io(node_, static_cast<int>(io),
                                      params_.request_message_bytes);
    IoNode& server = runtime_->io_node(static_cast<int>(io));
    MicroSec served = arrival;
    std::int64_t node_bytes = 0;
    for (const BlockAccess& a : accesses) {
      served = std::max(served,
                        server.serve_read(arrival, a.disk_offset, a.bytes));
      node_bytes += a.bytes;
    }
    result.completed_at =
        std::max(result.completed_at,
                 served + machine.compute_to_io(node_, static_cast<int>(io),
                                                node_bytes));
  }
  return result;
}

std::optional<std::int64_t> Client::seek(Fd fd, std::int64_t offset,
                                         Whence whence) {
  const Handle* h = find_handle(fd);
  if (h == nullptr) return std::nullopt;
  return runtime_->fs().seek(h->job, node_, h->file, offset, whence);
}

std::optional<std::int64_t> Client::close(Fd fd) {
  const Handle* h = find_handle(fd);
  if (h == nullptr) return std::nullopt;
  const auto size = runtime_->fs().close(h->job, node_, h->file);
  handles_[static_cast<std::size_t>(fd - kFirstFd)] = Handle{};
  --open_count_;
  return size;
}

bool Client::unlink(JobId job, const std::string& path) {
  return runtime_->fs().unlink(job, path);
}

FileId Client::file_of(Fd fd) const {
  const Handle* h = find_handle(fd);
  return h == nullptr ? kNoFile : h->file;
}

JobId Client::job_of(Fd fd) const {
  const Handle* h = find_handle(fd);
  return h == nullptr ? kNoJob : h->job;
}

}  // namespace charisma::cfs
