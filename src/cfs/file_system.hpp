// CFS metadata layer: directory, inodes, striping, and open-file sessions.
//
// This layer is shared by all compute nodes (in the real machine it lived in
// the I/O-node servers; the split here is the standard simulator one:
// metadata is centralized and instantaneous, data movement is priced by the
// client through the network and disk models).
//
// Striping (paper §2.4): every file is striped round-robin over ALL disks in
// 4 KB blocks.  Block b of a file whose stripe starts at s lives on I/O node
// (s + b) mod N; its address on that node's disk is assigned at allocation.
//
// I/O modes (paper §2.4): a file is opened by a job in one of four modes.
//   mode 0  independent file pointer per node (99% of files in the trace);
//   mode 1  one shared pointer, requests served in arrival order;
//   mode 2  shared pointer with enforced round-robin node order;
//   mode 3  like mode 2 but all access sizes must be identical, which makes
//           every node's offsets computable locally.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cfs/types.hpp"
#include "util/units.hpp"

namespace charisma::cfs {

struct FileSystemParams {
  int io_nodes = 10;
  std::int64_t block_size = util::kBlockSize;
  std::int64_t disk_capacity = 760 * util::kMiB;
  /// Cost of taking the shared file pointer in modes 1-3 (a message to the
  /// pointer's owner and back).
  MicroSec pointer_handoff = 200;
};

/// One 4 KB block's physical placement.
struct BlockAccess {
  int io_node = 0;
  std::int64_t disk_offset = 0;   // byte address on that I/O node's disk
  std::int64_t file_block = 0;    // block index within the file
  std::int64_t bytes = 0;         // bytes of this request inside the block
};

/// Scratch buffer for block plans.  The request path builds one plan per
/// simulated I/O operation into a buffer each client owns and clears
/// between operations; its capacity stays at the high-water mark, so a
/// client's plans stop allocating after its first few operations.
using BlockPlan = std::vector<BlockAccess>;

/// Grant of a file-offset range to one node's read or write.
struct Reservation {
  bool ok = false;
  std::int64_t offset = 0;
  std::int64_t bytes = 0;       // clipped for reads at EOF
  MicroSec not_before = 0;      // earliest start (shared-pointer hand-off)
  bool extends_file = false;
  IoError error = IoError::kNone;
};

struct FileStats {
  std::int64_t size = 0;
  JobId creator = kNoJob;
  bool deleted = false;
  std::string path;
};

class FileSystem {
 public:
  explicit FileSystem(FileSystemParams params = {});

  [[nodiscard]] const FileSystemParams& params() const noexcept {
    return params_;
  }

  // --- Directory operations -------------------------------------------
  /// Opens `path` for (job, node).  Creates the file if kCreate is set and
  /// it does not exist; truncates if kTruncate.  All opens of one file by
  /// one job form a single session and must agree on the I/O mode.
  OpenResult open(JobId job, NodeId node, const std::string& path,
                  std::uint8_t flags, IoMode mode, MicroSec now);
  /// Closes (job, node)'s handle. Returns file size at close, or nullopt if
  /// the handle is unknown.
  std::optional<std::int64_t> close(JobId job, NodeId node, FileId file);
  /// Removes the path from the directory.  The inode survives for analysis.
  bool unlink(JobId job, const std::string& path);

  // --- Data-path metadata ---------------------------------------------
  /// Grants the next offset range to a node's request per the session mode.
  Reservation reserve_read(JobId job, NodeId node, FileId file,
                           std::int64_t bytes, MicroSec now);
  Reservation reserve_write(JobId job, NodeId node, FileId file,
                            std::int64_t bytes, MicroSec now);
  /// Repositions a pointer (mode 0 only; CFS shared pointers cannot seek
  /// independently).  Returns resulting offset or nullopt on error.
  std::optional<std::int64_t> seek(JobId job, NodeId node, FileId file,
                                   std::int64_t offset, Whence whence);

  /// Strided read reservation (the paper's §5 interface extension, mode 0
  /// only): grants `count` elements of `record` bytes separated by
  /// `interval` skipped bytes, starting at the node's pointer.  Elements
  /// past EOF are dropped; a final partial element is clipped.  On success
  /// r.offset is the first element's offset and r.bytes the total bytes
  /// granted; the pointer advances past the last granted element.
  Reservation reserve_strided_read(JobId job, NodeId node, FileId file,
                                   std::int64_t record, std::int64_t interval,
                                   std::int64_t count, MicroSec now);

  /// Physical placement of the byte range [offset, offset+bytes).
  /// For writes call after reserve_write (blocks are allocated there).
  [[nodiscard]] std::vector<BlockAccess> plan(FileId file, std::int64_t offset,
                                              std::int64_t bytes) const;
  /// Allocation-free variant for the request hot path: APPENDS the plan to
  /// `out` (callers clear between operations; appending lets a strided
  /// request accumulate all of its elements' accesses in one buffer).
  void plan_into(FileId file, std::int64_t offset, std::int64_t bytes,
                 BlockPlan& out) const;

  // --- Introspection ----------------------------------------------------
  [[nodiscard]] std::optional<FileId> lookup(const std::string& path) const;
  [[nodiscard]] std::optional<FileStats> stats(FileId file) const;
  [[nodiscard]] std::int64_t file_count() const noexcept {
    return static_cast<std::int64_t>(inodes_.size());
  }
  [[nodiscard]] std::int64_t blocks_allocated(int io_node) const;
  /// Free bytes remaining on the given I/O node's disk.
  [[nodiscard]] std::int64_t free_bytes(int io_node) const;

 private:
  /// No session: the end of an inode's session list.
  static constexpr std::int32_t kNoSession = -1;

  struct Session {  // one job's open session on a file
    JobId job = kNoJob;
    std::int32_t next = kNoSession;  // the inode's next session
    IoMode mode = IoMode::kIndependent;
    std::uint8_t flags = 0;
    int open_count = 0;
    // Indexed by node id: the node's mode-0 file pointer (in mode 3, its
    // round counter), or kClosedSlot where the node does not hold the file
    // open.
    std::vector<std::int64_t> node_offset;
    std::int64_t shared_offset = 0;  // modes 1-3
    MicroSec pointer_free = 0;  // when the shared pointer is next available
    std::vector<NodeId> turn_order;  // modes 2-3: node order (open order)
    std::size_t next_turn = 0;       // modes 2: whose turn it is
    std::int64_t fixed_size = -1;    // mode 3: the mandated access size
  };
  /// A node_offset slot whose node does not hold the file open (pointers
  /// and round counters are never negative).
  static constexpr std::int64_t kClosedSlot = -1;

  struct Inode {
    FileId id = kNoFile;
    // The sessions holding the file open, a list through sessions_: almost
    // always zero or one, so a data operation finds its session with a
    // short walk, not a hash.
    std::int32_t first_session = kNoSession;
    std::string path;
    std::int64_t size = 0;
    int first_stripe = 0;  // I/O node holding file block 0
    JobId creator = kNoJob;
    bool deleted = false;
    // Disk block number (byte address / block size) of each allocated file
    // block, on its I/O node: half the bytes of a byte-address map.
    std::vector<std::uint32_t> disk_block;
  };

  Inode& inode(FileId file);
  const Inode& inode(FileId file) const;
  /// The (job, file) session, or nullptr when the job does not hold the
  /// file open or `file` names no inode.
  Session* find_session(JobId job, FileId file);
  /// The node's pointer slot in `s`, or nullptr when the node does not hold
  /// the file open.
  static std::int64_t* node_slot(Session& s, NodeId node);
  /// Ensures blocks covering [0, new_size) exist; allocates on disks.
  void allocate_to(Inode& ino, std::int64_t new_size);
  Reservation reserve(JobId job, NodeId node, FileId file, std::int64_t bytes,
                      bool is_write, MicroSec now);

  FileSystemParams params_;
  std::unordered_map<std::string, FileId> directory_;
  std::vector<Inode> inodes_;  // indexed by FileId
  // Every open session; a closed session's slot goes on free_sessions_.
  std::vector<Session> sessions_;
  std::vector<std::int32_t> free_sessions_;
  std::vector<std::int64_t> disk_next_free_;  // per I/O node
};

}  // namespace charisma::cfs
