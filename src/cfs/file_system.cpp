#include "cfs/file_system.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace charisma::cfs {

FileSystem::FileSystem(FileSystemParams params) : params_(params) {
  CHECK(params_.io_nodes >= 1, "need at least one I/O node");
  CHECK(params_.block_size > 0, "block size must be positive");
  disk_next_free_.assign(static_cast<std::size_t>(params_.io_nodes), 0);
}

FileSystem::Inode& FileSystem::inode(FileId file) {
  CHECK(file >= 0 && static_cast<std::size_t>(file) < inodes_.size(),
        "bad file id");
  return inodes_[static_cast<std::size_t>(file)];
}

const FileSystem::Inode& FileSystem::inode(FileId file) const {
  CHECK(file >= 0 && static_cast<std::size_t>(file) < inodes_.size(),
        "bad file id");
  return inodes_[static_cast<std::size_t>(file)];
}

FileSystem::Session* FileSystem::find_session(JobId job, FileId file) {
  if (file < 0 || static_cast<std::size_t>(file) >= inodes_.size()) {
    return nullptr;
  }
  for (std::int32_t i = inodes_[static_cast<std::size_t>(file)].first_session;
       i != kNoSession; i = sessions_[static_cast<std::size_t>(i)].next) {
    Session& s = sessions_[static_cast<std::size_t>(i)];
    if (s.job == job) return &s;
  }
  return nullptr;
}

std::int64_t* FileSystem::node_slot(Session& s, NodeId node) {
  const auto i = static_cast<std::size_t>(node);
  if (node < 0 || i >= s.node_offset.size() ||
      s.node_offset[i] == kClosedSlot) {
    return nullptr;
  }
  return &s.node_offset[i];
}

OpenResult FileSystem::open(JobId job, NodeId node, const std::string& path,
                            std::uint8_t flags, IoMode mode, MicroSec now) {
  OpenResult result;
  result.completed_at = now;
  if ((flags & (kRead | kWrite)) == 0) {
    result.error = IoError::kNoIntent;
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
    result.error = IoError::kNoSuchFile;
    return result;
  }

  Inode& ino = inode(id);
  if ((flags & kTruncate) && ino.size > 0) {
    ino.size = 0;  // disk blocks are not reused, like real CFS
    ino.disk_block.clear();
  }

  Session* s = find_session(job, id);
  if (s == nullptr) {
    std::int32_t index;
    if (free_sessions_.empty()) {
      index = static_cast<std::int32_t>(sessions_.size());
      sessions_.emplace_back();
    } else {
      index = free_sessions_.back();
      free_sessions_.pop_back();
    }
    s = &sessions_[static_cast<std::size_t>(index)];
    s->job = job;
    s->next = ino.first_session;
    s->mode = mode;
    s->flags = flags;
    ino.first_session = index;
  } else if (s->mode != mode) {
    result.error = IoError::kModeConflict;
    result.created = false;
    return result;
  }
  s->flags |= flags;
  if (node_slot(*s, node) != nullptr) {
    result.error = IoError::kAlreadyOpen;
    return result;
  }
  // Node ids index the session's pointer slots; no hypercube has more than
  // 2^20 nodes.
  CHECK(node >= 0 && node < (NodeId{1} << 20), "open by node ", node);
  const auto slot = static_cast<std::size_t>(node);
  if (s->node_offset.size() <= slot) {
    s->node_offset.resize(slot + 1, kClosedSlot);
  }
  s->node_offset[slot] = 0;
  s->turn_order.push_back(node);
  ++s->open_count;

  result.ok = true;
  result.fd = kBadFd;  // assigned by the client layer
  result.file = id;
  return result;
}

std::optional<std::int64_t> FileSystem::close(JobId job, NodeId node,
                                              FileId file) {
  Session* s = find_session(job, file);
  if (s == nullptr) return std::nullopt;
  std::int64_t* pointer = node_slot(*s, node);
  if (pointer == nullptr) return std::nullopt;
  *pointer = kClosedSlot;
  --s->open_count;
  Inode& ino = inode(file);
  if (s->open_count == 0) {
    // Unlink the session from its inode's list and free its slot (and,
    // with it, the session's vectors).
    const auto index = static_cast<std::int32_t>(s - sessions_.data());
    std::int32_t* link = &ino.first_session;
    while (*link != index) {
      link = &sessions_[static_cast<std::size_t>(*link)].next;
    }
    *link = s->next;
    *s = Session{};
    free_sessions_.push_back(index);
  }
  return ino.size;
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
  // Divide once for the first new block's I/O node, then rotate, as
  // plan_into does.
  int io = static_cast<int>(
      (ino.first_stripe + static_cast<std::int64_t>(ino.disk_block.size())) %
      params_.io_nodes);
  while (static_cast<std::int64_t>(ino.disk_block.size()) < blocks_needed) {
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
    if (++io == params_.io_nodes) io = 0;
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
    r.error = IoError::kNegativeSize;
    return r;
  }
  Session* s = find_session(job, file);
  // One slot serves the open-by-this-node check, the mode-0 pointer read,
  // and the pointer advance below.
  std::int64_t* pointer = s == nullptr ? nullptr : node_slot(*s, node);
  if (pointer == nullptr) {
    r.error = IoError::kNotOpen;
    return r;
  }
  if (is_write && (s->flags & kWrite) == 0) {
    r.error = IoError::kNotOpenForWriting;
    return r;
  }
  if (!is_write && (s->flags & kRead) == 0) {
    r.error = IoError::kNotOpenForReading;
    return r;
  }
  Inode& ino = inode(file);

  std::int64_t offset = 0;
  switch (s->mode) {
    case IoMode::kIndependent:
      offset = *pointer;
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
        r.error = IoError::kOutOfTurn;
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
        r.error = IoError::kSizeMismatch;
        return r;
      }
      // Identical sizes make every node's round-robin offsets computable
      // locally, so out-of-order arrival is fine.
      const auto pos = static_cast<std::int64_t>(
          std::find(s->turn_order.begin(), s->turn_order.end(), node) -
          s->turn_order.begin());
      std::int64_t& rounds = *pointer;  // reused as the round counter
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
        r.error = IoError::kFileTooLarge;
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
      *pointer = offset + (is_write ? bytes : granted);
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
    r.error = IoError::kBadStride;
    return r;
  }
  Session* s = find_session(job, file);
  std::int64_t* pointer = s == nullptr ? nullptr : node_slot(*s, node);
  if (pointer == nullptr) {
    r.error = IoError::kNotOpen;
    return r;
  }
  if (s->mode != IoMode::kIndependent) {
    r.error = IoError::kNotIndependent;
    return r;
  }
  if ((s->flags & kRead) == 0) {
    r.error = IoError::kNotOpenForReading;
    return r;
  }
  const Inode& ino = inode(file);
  const std::int64_t start = *pointer;
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
  *pointer = end;
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
  std::int64_t* pointer = node_slot(*s, node);
  if (pointer == nullptr) return std::nullopt;
  std::int64_t base = 0;
  switch (whence) {
    case Whence::kSet: base = 0; break;
    case Whence::kCurrent: base = *pointer; break;
    case Whence::kEnd: base = inode(file).size; break;
  }
  // base >= 0, so only a positive offset can overflow.
  if (offset > kMaxFileOffset - base) return std::nullopt;
  const std::int64_t target = base + offset;
  if (target < 0) return std::nullopt;
  *pointer = target;
  return target;
}

std::vector<BlockAccess> FileSystem::plan(FileId file, std::int64_t offset,
                                          std::int64_t bytes) const {
  BlockPlan out;
  plan_into(file, offset, bytes, out);
  return out;
}

void FileSystem::plan_into(FileId file, std::int64_t offset,
                           std::int64_t bytes, BlockPlan& out) const {
  CHECK(offset >= 0 && bytes >= 0, "bad plan range");
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
  CHECK(io_node >= 0 && io_node < params_.io_nodes, "bad I/O node");
  return disk_next_free_[static_cast<std::size_t>(io_node)] /
         params_.block_size;
}

std::int64_t FileSystem::free_bytes(int io_node) const {
  CHECK(io_node >= 0 && io_node < params_.io_nodes, "bad I/O node");
  return params_.disk_capacity -
         disk_next_free_[static_cast<std::size_t>(io_node)];
}

}  // namespace charisma::cfs
