#include "cfs/file_system.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace charisma::cfs {

FileSystem::FileSystem(FileSystemParams params) : params_(params) {
  util::check(params_.io_nodes >= 1, "need at least one I/O node");
  util::check(params_.block_size > 0, "block size must be positive");
  disk_next_free_.assign(static_cast<std::size_t>(params_.io_nodes), 0);
}

FileSystem::Inode& FileSystem::inode(FileId file) {
  util::check(file >= 0 && static_cast<std::size_t>(file) < inodes_.size(),
              "bad file id");
  return inodes_[static_cast<std::size_t>(file)];
}

const FileSystem::Inode& FileSystem::inode(FileId file) const {
  util::check(file >= 0 && static_cast<std::size_t>(file) < inodes_.size(),
              "bad file id");
  return inodes_[static_cast<std::size_t>(file)];
}

FileSystem::Session* FileSystem::find_session(JobId job, FileId file) {
  const auto it = sessions_.find({job, file});
  return it == sessions_.end() ? nullptr : &it->second;
}

OpenResult FileSystem::open(JobId job, NodeId node, const std::string& path,
                            std::uint8_t flags, IoMode mode, MicroSec now) {
  OpenResult result;
  result.completed_at = now;
  if ((flags & (kRead | kWrite)) == 0) {
    result.error = "open without read or write intent";
    return result;
  }

  FileId id = kNoFile;
  const auto dir_it = directory_.find(path);
  if (dir_it != directory_.end()) {
    id = dir_it->second;
  } else if (flags & kCreate) {
    id = static_cast<FileId>(inodes_.size());
    Inode ino;
    ino.id = id;
    ino.path = path;
    ino.creator = job;
    // CFS starts each file's stripe on a rotating I/O node to spread load.
    ino.first_stripe = static_cast<int>(id % params_.io_nodes);
    inodes_.push_back(std::move(ino));
    directory_.emplace(path, id);
    result.created = true;
  } else {
    result.error = "no such file: " + path;
    return result;
  }

  Inode& ino = inode(id);
  if ((flags & kTruncate) && ino.size > 0) {
    ino.size = 0;  // disk blocks are not reused, like real CFS
    ino.disk_block.clear();
  }

  auto [it, inserted] = sessions_.try_emplace({job, id});
  Session& s = it->second;
  if (inserted) {
    s.mode = mode;
    s.flags = flags;
  } else if (s.mode != mode) {
    result.error = "conflicting I/O mode within job session";
    result.created = false;
    return result;
  }
  s.flags |= flags;
  if (s.node_offset.count(node) != 0) {
    result.error = "node already holds this file open";
    return result;
  }
  s.node_offset.emplace(node, 0);
  s.turn_order.push_back(node);
  ++s.open_count;

  result.ok = true;
  result.fd = kBadFd;  // assigned by the client layer
  result.file = id;
  return result;
}

std::optional<std::int64_t> FileSystem::close(JobId job, NodeId node,
                                              FileId file) {
  Session* s = find_session(job, file);
  if (s == nullptr) return std::nullopt;
  const auto it = s->node_offset.find(node);
  if (it == s->node_offset.end()) return std::nullopt;
  s->node_offset.erase(it);
  --s->open_count;
  const std::int64_t size = inode(file).size;
  if (s->open_count == 0) sessions_.erase({job, file});
  return size;
}

bool FileSystem::unlink(JobId /*job*/, const std::string& path) {
  const auto it = directory_.find(path);
  if (it == directory_.end()) return false;
  Inode& ino = inode(it->second);
  ino.deleted = true;
  // Free the disk space accounting (blocks are not reused; capacity checks
  // use free_bytes which nets out deleted files).
  directory_.erase(it);
  return true;
}

void FileSystem::allocate_to(Inode& ino, std::int64_t new_size) {
  CHECK(new_size >= 0, "allocate_to(", new_size, ") on ", ino.path);
  const std::int64_t bs = params_.block_size;
  const std::int64_t blocks_needed = (new_size + bs - 1) / bs;
  while (static_cast<std::int64_t>(ino.disk_block.size()) < blocks_needed) {
    const auto b = static_cast<std::int64_t>(ino.disk_block.size());
    const int io = static_cast<int>((ino.first_stripe + b) % params_.io_nodes);
    auto& next = disk_next_free_[static_cast<std::size_t>(io)];
    // Stripe units are whole 4 KB blocks laid down back to back, so every
    // allocation lands block-aligned; an unaligned address means the
    // allocator's bookkeeping was corrupted.
    CHECK(next % bs == 0, "unaligned stripe unit at disk offset ", next,
          " on I/O node ", io);
    const std::int64_t number = next / bs;
    CHECK(number <= std::numeric_limits<std::uint32_t>::max(), "disk block ",
          number, " on I/O node ", io, " does not fit the 32-bit block map");
    ino.disk_block.push_back(static_cast<std::uint32_t>(number));
    next += bs;
  }
  ino.size = std::max(ino.size, new_size);
  CHECK(static_cast<std::int64_t>(ino.disk_block.size()) * bs >= ino.size,
        "extent of ", ino.path, " (", ino.disk_block.size(),
        " blocks) does not cover size ", ino.size);
}

Reservation FileSystem::reserve(JobId job, NodeId node, FileId file,
                                std::int64_t bytes, bool is_write,
                                MicroSec now) {
  Reservation r;
  r.not_before = now;
  if (bytes < 0) {
    r.error = "negative request size";
    return r;
  }
  Session* s = find_session(job, file);
  if (s == nullptr) {
    r.error = "file not open by this node";
    return r;
  }
  // One hash lookup serves the open-by-this-node check, the mode-0 pointer
  // read, and the pointer advance below — this runs once per data op.
  const auto node_it = s->node_offset.find(node);
  if (node_it == s->node_offset.end()) {
    r.error = "file not open by this node";
    return r;
  }
  if (is_write && (s->flags & kWrite) == 0) {
    r.error = "file not open for writing";
    return r;
  }
  if (!is_write && (s->flags & kRead) == 0) {
    r.error = "file not open for reading";
    return r;
  }
  Inode& ino = inode(file);

  std::int64_t offset = 0;
  switch (s->mode) {
    case IoMode::kIndependent:
      offset = node_it->second;
      break;
    case IoMode::kShared:
      offset = s->shared_offset;
      r.not_before = std::max(now, s->pointer_free);
      s->pointer_free = r.not_before + params_.pointer_handoff;
      break;
    case IoMode::kOrdered: {
      // Strict round-robin: it must be this node's turn.
      const NodeId expected =
          s->turn_order[s->next_turn % s->turn_order.size()];
      if (node != expected) {
        r.error = "mode-2 access out of turn";
        return r;
      }
      offset = s->shared_offset;
      r.not_before = std::max(now, s->pointer_free);
      s->pointer_free = r.not_before + params_.pointer_handoff;
      ++s->next_turn;
      break;
    }
    case IoMode::kFixed: {
      if (s->fixed_size < 0) s->fixed_size = bytes;
      if (bytes != s->fixed_size) {
        r.error = "mode-3 access size mismatch";
        return r;
      }
      // Identical sizes make every node's round-robin offsets computable
      // locally, so out-of-order arrival is fine.
      const auto pos = static_cast<std::int64_t>(
          std::find(s->turn_order.begin(), s->turn_order.end(), node) -
          s->turn_order.begin());
      auto& rounds = node_it->second;  // reused as the round counter
      const auto nodes = static_cast<std::int64_t>(s->turn_order.size());
      offset = (rounds * nodes + pos) * bytes;
      ++rounds;
      break;
    }
  }

  // File-pointer consistency: every mode computes its offset from session
  // bookkeeping (per-node pointer, shared pointer, or round counter); a
  // negative offset means that bookkeeping went bad, not the caller.
  CHECK(offset >= 0, "mode ", to_string(s->mode), " pointer for node ", node,
        " went negative: ", offset);

  std::int64_t granted = bytes;
  if (is_write) {
    if (granted > 0) {
      if (offset > kMaxFileBytes - granted) {
        // The write would end past what one file's block map may hold.
        r.error = "file too large";
        return r;
      }
      const std::int64_t end = offset + granted;
      if (end > ino.size) {
        allocate_to(ino, end);
        r.extends_file = true;
      }
    }
  } else {
    granted = std::clamp<std::int64_t>(ino.size - offset, 0, bytes);
    // A pointer parked at/past EOF legitimately grants zero bytes; only a
    // non-empty reservation must stay inside the file.
    CHECK(granted == 0 || offset + granted <= ino.size,
          "read reservation [", offset, ", ", offset + granted,
          ") beyond EOF at ", ino.size);
  }

  // Advance the pointer that produced the offset.
  switch (s->mode) {
    case IoMode::kIndependent:
      node_it->second = offset + (is_write ? bytes : granted);
      break;
    case IoMode::kShared:
    case IoMode::kOrdered:
      s->shared_offset = offset + (is_write ? bytes : granted);
      break;
    case IoMode::kFixed:
      break;  // derived from the round counter
  }

  r.ok = true;
  r.offset = offset;
  r.bytes = granted;
  return r;
}

Reservation FileSystem::reserve_read(JobId job, NodeId node, FileId file,
                                     std::int64_t bytes, MicroSec now) {
  return reserve(job, node, file, bytes, /*is_write=*/false, now);
}

Reservation FileSystem::reserve_write(JobId job, NodeId node, FileId file,
                                      std::int64_t bytes, MicroSec now) {
  return reserve(job, node, file, bytes, /*is_write=*/true, now);
}

Reservation FileSystem::reserve_strided_read(JobId job, NodeId node,
                                             FileId file, std::int64_t record,
                                             std::int64_t interval,
                                             std::int64_t count,
                                             MicroSec now) {
  Reservation r;
  r.not_before = now;
  if (record <= 0 || interval < 0 || count <= 0) {
    r.error = "bad strided parameters";
    return r;
  }
  Session* s = find_session(job, file);
  if (s == nullptr) {
    r.error = "file not open by this node";
    return r;
  }
  const auto node_it = s->node_offset.find(node);
  if (node_it == s->node_offset.end()) {
    r.error = "file not open by this node";
    return r;
  }
  if (s->mode != IoMode::kIndependent) {
    r.error = "strided requests need an independent file pointer (mode 0)";
    return r;
  }
  if ((s->flags & kRead) == 0) {
    r.error = "file not open for reading";
    return r;
  }
  const Inode& ino = inode(file);
  const std::int64_t start = node_it->second;
  std::int64_t granted = 0;
  std::int64_t end = start;
  for (std::int64_t k = 0; k < count; ++k) {
    const std::int64_t elem = start + k * (record + interval);
    if (elem >= ino.size) break;
    const std::int64_t take = std::min(record, ino.size - elem);
    granted += take;
    end = elem + take;
    if (take < record) break;  // clipped at EOF
  }
  node_it->second = end;
  r.ok = true;
  r.offset = start;
  r.bytes = granted;
  return r;
}

std::optional<std::int64_t> FileSystem::seek(JobId job, NodeId node,
                                             FileId file, std::int64_t offset,
                                             Whence whence) {
  Session* s = find_session(job, file);
  if (s == nullptr || s->mode != IoMode::kIndependent) return std::nullopt;
  const auto it = s->node_offset.find(node);
  if (it == s->node_offset.end()) return std::nullopt;
  std::int64_t base = 0;
  switch (whence) {
    case Whence::kSet: base = 0; break;
    case Whence::kCurrent: base = it->second; break;
    case Whence::kEnd: base = inode(file).size; break;
  }
  // base >= 0, so only a positive offset can overflow.
  if (offset > kMaxFileOffset - base) return std::nullopt;
  const std::int64_t target = base + offset;
  if (target < 0) return std::nullopt;
  it->second = target;
  return target;
}

std::vector<BlockAccess> FileSystem::plan(FileId file, std::int64_t offset,
                                          std::int64_t bytes) const {
  BlockPlan scratch;
  plan_into(file, offset, bytes, scratch);
  return {scratch.begin(), scratch.end()};
}

void FileSystem::plan_into(FileId file, std::int64_t offset,
                           std::int64_t bytes, BlockPlan& out) const {
  util::check(offset >= 0 && bytes >= 0, "bad plan range");
  const Inode& ino = inode(file);
  const std::int64_t bs = params_.block_size;
  std::int64_t pos = offset;
  const std::int64_t end = offset + bytes;
  if (pos >= end) return;
  // Divide once for the first block; every later block advances by one, so
  // the per-block work is add/compare only (this runs for every block of
  // every simulated I/O operation).
  std::int64_t block = pos / bs;
  std::int64_t in_block = pos % bs;
  const std::int64_t last_block = (end - 1) / bs;
  out.reserve(out.size() + static_cast<std::size_t>(last_block - block + 1));
  CHECK(last_block < static_cast<std::int64_t>(ino.disk_block.size()),
        "plan for ", ino.path, " reaches block ", last_block, " but only ",
        ino.disk_block.size(), " are allocated");
  int io = static_cast<int>((ino.first_stripe + block) % params_.io_nodes);
  while (pos < end) {
    const std::int64_t len = std::min(end - pos, bs - in_block);
    BlockAccess& a = out.emplace_back();
    a.io_node = io;
    a.disk_offset =
        std::int64_t{ino.disk_block[static_cast<std::size_t>(block)]} * bs +
        in_block;
    a.file_block = block;
    a.bytes = len;
    pos += len;
    ++block;
    in_block = 0;
    if (++io == params_.io_nodes) io = 0;
  }
}

std::optional<FileId> FileSystem::lookup(const std::string& path) const {
  const auto it = directory_.find(path);
  if (it == directory_.end()) return std::nullopt;
  return it->second;
}

std::optional<FileStats> FileSystem::stats(FileId file) const {
  if (file < 0 || static_cast<std::size_t>(file) >= inodes_.size()) {
    return std::nullopt;
  }
  const Inode& ino = inodes_[static_cast<std::size_t>(file)];
  FileStats out;
  out.size = ino.size;
  out.creator = ino.creator;
  out.deleted = ino.deleted;
  out.path = ino.path;
  return out;
}

std::int64_t FileSystem::blocks_allocated(int io_node) const {
  util::check(io_node >= 0 && io_node < params_.io_nodes, "bad I/O node");
  return disk_next_free_[static_cast<std::size_t>(io_node)] /
         params_.block_size;
}

std::int64_t FileSystem::free_bytes(int io_node) const {
  util::check(io_node >= 0 && io_node < params_.io_nodes, "bad I/O node");
  return params_.disk_capacity -
         disk_next_free_[static_cast<std::size_t>(io_node)];
}

}  // namespace charisma::cfs
