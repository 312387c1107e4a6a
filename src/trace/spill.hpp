// Bounded-memory trace spilling, and the one codec of the `.chtr` format.
//
// While a study runs, the collector appends each flushed block to a
// SpillWriter, and only the header plus a per-block stamp index stay
// resident.  Blocks land in two tiers.  A writer with a SpillBudget keeps
// finished blocks' encoded payloads resident until the budget pool runs dry;
// from the first refused reservation on, every later block goes to the disk
// tier (sticky overflow, so the resident set is always a *prefix* of the
// stream).  The disk tier is scratch storage: an anonymous temp file holding
// only the encoded record payloads, each at its block's payload_offset — the
// index already holds every block's stamps and count.  Budget reservations
// are never returned — the pool is a monotone RSS bound, shared between the
// trace spill and the replay-op spill of one study.  Both spills keep their
// memory tier in a PageLog, so its pages go back to the OS when the spill is
// dropped.  The disk tier is written through a staging buffer, optionally
// from a background writer thread with a bounded queue so append() never
// blocks the simulation on write(2).
//
// A finished trace at rest is a `.chtr` file.  This file is the only code
// that knows its layout — magic, version, header, label, block count, then
// per block its stamps, record count and encoded records.  SpilledTrace::save
// is its one writer, SpilledTrace::open (strict or crash-tolerant) its one
// reader, and SpilledTrace::digest folds the bytes save() writes, so a live
// spill and the same trace saved and reopened share one digest.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_file.hpp"

namespace charisma::trace {

/// Push-based consumer of the postprocessed (clock-corrected, merged) record
/// stream.  Sinks hold bounded per-file/per-job state, never the full trace.
class RecordSink {
 public:
  virtual ~RecordSink() = default;
  /// Called once before the first record with how many records follow.
  virtual void on_start(std::uint64_t /*records*/) {}
  virtual void on_record(const Record& record) = 0;
};

/// A monotone reserve-only byte pool bounding how much spilled payload may
/// stay resident across the spill writers of one study (trace blocks plus
/// replay-op chunks).  Reservations are thread-safe and never released:
/// remaining() only falls, so the pool is a hard RSS bound by construction.
class SpillBudget {
 public:
  explicit SpillBudget(std::int64_t bytes) noexcept : remaining_(bytes) {}
  SpillBudget(const SpillBudget&) = delete;
  SpillBudget& operator=(const SpillBudget&) = delete;

  /// True (and debits the pool) iff `bytes` still fit.
  [[nodiscard]] bool try_reserve(std::int64_t bytes) noexcept {
    std::int64_t cur = remaining_.load(std::memory_order_relaxed);
    while (cur >= bytes) {
      if (remaining_.compare_exchange_weak(cur, cur - bytes,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::int64_t remaining() const noexcept {
    return remaining_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> remaining_;
};

/// An append-only byte log in page-mapped segments: the storage of both
/// spills' memory tiers.  append() hands out stable bytes (they never move,
/// also when the log does) from segments of kSegmentBytes mapped with mmap
/// on demand; an append larger than a segment gets a mapping of its own.
/// Destruction unmaps everything, so a dropped tier leaves RSS at once —
/// per-block heap buffers freed below later allocations stay in the malloc
/// arena instead.  Under ASan the unwritten tail of each segment stays
/// poisoned, so a read past the last appended byte reports.
class PageLog {
 public:
  /// Bytes per segment mapping.
  static constexpr std::size_t kSegmentBytes = std::size_t{4} << 20;

  PageLog() = default;
  PageLog(PageLog&& other) noexcept;
  PageLog& operator=(PageLog&& other) noexcept;
  PageLog(const PageLog&) = delete;
  PageLog& operator=(const PageLog&) = delete;
  ~PageLog() { release(); }

  /// `n` writable bytes, 8-byte aligned, valid until the log is destroyed.
  /// Maps a segment when the current one cannot hold them (the first
  /// append maps the first).  Throws std::bad_alloc when mmap fails.
  [[nodiscard]] std::uint8_t* append(std::size_t n);

  /// Bytes mapped so far: 0 until the first append.
  [[nodiscard]] std::size_t mapped_bytes() const noexcept;

 private:
  struct Mapping {
    std::uint8_t* base = nullptr;
    std::size_t size = 0;
  };
  [[nodiscard]] std::uint8_t* map(std::size_t size);
  void release() noexcept;

  std::vector<Mapping> mappings_;
  std::uint8_t* segment_ = nullptr;  // the segment appends fill
  std::size_t used_ = 0;             // bytes of it handed out
};

/// The disk-tier backing file.  Two flavours:
///   - anonymous: O_TMPFILE in the target directory, falling back to a
///     uniquely named (pid + counter) file unlinked immediately after
///     creation — either way a crash leaves no litter.  Reads re-open the
///     still-live inode through /proc/self/fd/<fd>; if /proc is unavailable
///     the named fallback stays visible (and owned) until destruction.
///   - reference: an existing file opened read-only and never removed.
class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile() { close_and_remove(); }

  /// Anonymous temp file in `dir` (empty: $TMPDIR, then /tmp).  Throws
  /// std::runtime_error when no file can be created there.
  [[nodiscard]] static SpillFile create_anonymous(const std::string& dir,
                                                  const char* tag);
  /// Borrows an existing file for reading; never removed.
  [[nodiscard]] static SpillFile reference(std::string path);

  [[nodiscard]] bool valid() const noexcept {
    return fd_ >= 0 || !read_path_.empty();
  }
  /// Writable descriptor (-1 for reference files).
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Path readers open ifstreams on ("/proc/self/fd/<fd>" when anonymous).
  [[nodiscard]] const std::string& read_path() const noexcept {
    return read_path_;
  }

  /// Closes the descriptor and unlinks the file if owned.  Idempotent.
  void close_and_remove() noexcept;

 private:
  int fd_ = -1;
  std::string read_path_;
  std::string remove_path_;  // non-empty: unlink on close_and_remove()
};

/// Writes all of `data` to `fd` (retrying short writes and EINTR); returns
/// the host ms spent blocked in write(2).  Throws std::runtime_error on
/// failure.  Shared by the trace spill writer and the replay-op sink.
double spill_write(int fd, const void* data, std::size_t size);

/// Where a SpillWriter puts its disk tier: an anonymous temp file in `dir`.
struct SpillTarget {
  std::string dir;  ///< "" = $TMPDIR, then /tmp

  [[nodiscard]] static SpillTarget anonymous_in(std::string dir) {
    SpillTarget t;
    t.dir = std::move(dir);
    return t;
  }
};

struct SpillWriterOptions {
  /// Admission pool for the memory tier; borrowed, must outlive the writer.
  /// Null sends every block to the disk tier (the pre-tier behavior).
  SpillBudget* budget = nullptr;
  /// Write disk-tier bytes from a background thread with a bounded buffer
  /// queue, so append() only blocks when the queue is full.
  bool async = false;
};

/// What the writer measured; carried by the finished SpilledTrace.
struct SpillWriterStats {
  /// Host time inside write(2).  Synchronous mode: time append()/finish()
  /// blocked.  Async mode: writer-thread time (overlapped with the
  /// simulation), so only append_stall_ms below was actually paid.
  double write_ms = 0.0;
  /// Host time append() spent waiting for a free slot in the async queue.
  double append_stall_ms = 0.0;
  std::int64_t disk_bytes = 0;  ///< bytes written to the disk tier
  std::uint64_t mem_blocks = 0;
  std::uint64_t disk_blocks = 0;
};

/// One block's stamps and payload location; the in-memory index entry.
/// Payloads live either in the memory tier (payload_offset == kMemoryTier,
/// located by mem_index) or on disk at payload_offset.
struct SpillBlock {
  /// payload_offset value marking a memory-tier block.
  static constexpr std::int64_t kMemoryTier = -1;

  NodeId node = 0;
  MicroSec sent_local = 0;   // node clock when the buffer was sent
  MicroSec recv_global = 0;  // collector clock when it arrived
  std::uint32_t count = 0;   // records in this block
  std::uint32_t mem_index = 0;      // memory-tier slot when resident
  std::int64_t payload_offset = 0;  // file offset of the first record's bytes

  [[nodiscard]] bool in_memory() const noexcept {
    return payload_offset == kMemoryTier;
  }
};

/// A finished trace: header and block index in memory, payloads in the
/// memory tier (encoded bytes in a PageLog, a prefix of the stream) or read
/// back one block at a time from the backing file — the writer's scratch
/// file, or the `.chtr` file open() indexed.
class SpilledTrace {
 public:
  TraceHeader header;
  std::vector<SpillBlock> blocks;

  SpilledTrace() = default;
  SpilledTrace(SpilledTrace&&) noexcept = default;
  SpilledTrace& operator=(SpilledTrace&&) noexcept = default;
  SpilledTrace(const SpilledTrace&) = delete;
  SpilledTrace& operator=(const SpilledTrace&) = delete;
  ~SpilledTrace() = default;

  /// The backing file's read path; empty when every block fit in memory.
  [[nodiscard]] const std::string& path() const noexcept {
    return file_.read_path();
  }
  [[nodiscard]] std::uint64_t record_count() const noexcept;

  /// Order-sensitive FNV-1a digest of the header, block stamps, and every
  /// record's encoded bytes: equal digests mean save() writes byte-identical
  /// files (the determinism self-check compares these).  Folds both tiers
  /// once, disk blocks sequentially.
  [[nodiscard]] std::uint64_t digest() const;

  /// Decodes block `index`'s records into `out` (cleared first).  Memory-
  /// tier blocks decode from the resident payload; disk blocks read through
  /// the caller's open stream — callers reuse both across blocks so the
  /// merge holds one block per node, not the trace.  Throws
  /// std::runtime_error, naming the block, on a truncated payload and on a
  /// read or write record that no simulated file system makes: a negative
  /// offset (the cache simulators would index out of bounds with it), an
  /// offset past cfs::kMaxFileOffset, or a byte count outside
  /// [0, cfs::kMaxRequestBytes] (the cache replays walk every block of a
  /// request).  Safe to call concurrently (each caller owns its stream and
  /// output).
  void read_block(std::size_t index, std::ifstream& in,
                  std::vector<Record>& out) const;

  /// Opens the disk tier for streaming (seekable stream positioned by
  /// read_block).  Returns an unopened stream when no block is on disk.
  [[nodiscard]] std::ifstream open_payload() const;

  /// Writes the whole trace to `path` as one trace file, without decoding a
  /// record: memory-tier frames from their resident encoded bytes, disk-
  /// tier frames copied from the backing file in bounded chunks.  Throws
  /// std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  /// Payload bytes in the disk tier (what digest() re-reads).
  [[nodiscard]] std::int64_t disk_payload_bytes() const noexcept;

  /// The writer's measurements (zeros for open()ed traces).
  [[nodiscard]] const SpillWriterStats& write_stats() const noexcept {
    return write_stats_;
  }

  /// Indexes a `.chtr` file without loading record payloads (read_block
  /// decodes them).  Throws std::runtime_error on a missing file, a bad
  /// magic or version, a damaged header (including a block size <= 0,
  /// which every block-indexing analysis divides by) and, in strict mode, a
  /// frame that overruns the file.  Tolerant mode honours the tolerant-
  /// reader contract: it scans block frames to end-of-file rather than
  /// trusting the declared block count (so a crash-truncated final block —
  /// or a count that was zeroed or overstated — loses only the cut block)
  /// and reports via `truncated` instead of throwing.
  [[nodiscard]] static SpilledTrace open(const std::string& path,
                                         bool tolerant = false,
                                         bool* truncated = nullptr);

 private:
  friend class SpillWriter;
  /// Where each memory-tier block's encoded payload starts in mem_log_,
  /// indexed by SpillBlock::mem_index.
  std::vector<const std::uint8_t*> mem_payloads_;
  PageLog mem_log_;
  SpillFile file_;
  SpillWriterStats write_stats_;
};

/// The collector's incremental block store.  The header (minus trace_end)
/// must be final at construction: the finished trace carries this copy, and
/// finish() adds trace_end.
///
/// The backing file is created lazily, on the first block that misses the
/// memory tier: a run whose whole trace fits the budget performs zero file
/// I/O.  A writer destroyed unfinished only stops its writer thread; its
/// scratch file goes with it.
class SpillWriter {
 public:
  SpillWriter(const SpillTarget& target, const TraceHeader& header,
              const SpillWriterOptions& options = {});
  /// Joins the async writer thread, if one started.
  ~SpillWriter();
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Appends one block's encoded records; called in collector flush order.
  /// Throws std::runtime_error if the (possibly asynchronous) disk tier
  /// failed.
  void append(const TraceBlock& block);

  /// Flushes and joins the writer thread, and returns the index as an
  /// owning SpilledTrace ending at `trace_end` (the backing file is deleted
  /// with it).
  [[nodiscard]] SpilledTrace finish(MicroSec trace_end);

 private:
  struct Async;

  /// Creates the backing file on first use.
  void ensure_file();
  void flush_stage();
  void async_loop();
  /// Stops and joins the writer thread; queued buffers are written first.
  void join_async() noexcept;
  /// join_async(), then folds the thread's stats in and rethrows its error.
  void drain_async();

  SpillTarget target_;
  TraceHeader header_;
  SpillWriterOptions options_;
  SpillFile file_;

  std::vector<SpillBlock> index_;
  std::vector<const std::uint8_t*> mem_payloads_;  // into mem_log_
  PageLog mem_log_;
  bool overflowed_ = false;  // sticky: first refused reservation ends the tier

  std::vector<std::uint8_t> stage_;   // pending disk-tier bytes
  std::int64_t disk_offset_ = 0;      // next disk write position
  std::uint64_t disk_blocks_ = 0;
  std::unique_ptr<Async> async_;

  SpillWriterStats stats_;
  bool finished_ = false;
};

}  // namespace charisma::trace
