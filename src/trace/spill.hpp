// Bounded-memory spilling, and the one codec of the `.chtr` format.
//
// A spill is an index plus one SpillStore.  The store makes the tier
// decision for every unit it is handed — a trace block, or a replay-op chunk
// (cache/replay.hpp) — and the index keeps what the unit means.  While the
// shared SpillBudget admits a unit's bytes plus its index overhead, the
// bytes stay resident in the store's PageLog; from the first refused
// reservation on, every later unit goes to the disk tier (sticky overflow,
// so the resident set is always a *prefix* of the stream).  The disk tier is
// scratch storage: an anonymous temp file holding only the units' bare
// bytes, each at the offset its location names.  Budget reservations are
// never returned — the pool is a monotone RSS bound, shared between the
// trace spill and the replay-op spill of one study.  The disk tier is
// written through a staging buffer, optionally from a background writer
// thread with a bounded queue so append() never blocks the simulation on
// write(2), and read back with pread on the descriptor the store holds, so
// concurrent readers share it and each read names its own offset.
//
// While a study runs, the collector appends each flushed block to a
// SpillWriter, whose index keeps each block's stamps, record count and
// location.  A finished trace at rest is a `.chtr` file.  This file is the
// only code that knows its layout — magic, version, header, label, block
// count, then per block its stamps, record count and encoded records.
// SpilledTrace::save is its one writer, SpilledTrace::open (strict or
// crash-tolerant) its one reader, which indexes the file as a read-only
// store, and SpilledTrace::digest folds the bytes save() writes, so a live
// spill and the same trace saved and reopened share one digest.
#pragma once

#include <atomic>
#include <cstdint>
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
/// stay resident across the spill stores of one study (trace blocks plus
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

/// An append-only byte log in page-mapped segments: the store's memory
/// tier.  append() hands out stable bytes (they never move, also when the
/// log does) from segments of kSegmentBytes mapped with mmap on demand; an
/// append larger than a segment gets a mapping of its own.  Destruction
/// unmaps everything, so a dropped tier leaves RSS at once — per-block heap
/// buffers freed below later allocations stay in the malloc arena instead.
/// Under ASan the unwritten tail of each segment stays poisoned, so a read
/// past the last appended byte reports.
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

/// The store's disk-tier descriptor: an anonymous temp file (O_TMPFILE in
/// the target directory, or a uniquely named file unlinked at once — either
/// way a crash leaves no litter), or an existing file opened read-only.
/// Every read is a pread on the descriptor, counted.
class SpillFile {
 public:
  SpillFile() = default;
  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile() { close(); }

  /// Anonymous temp file in `dir` (empty: $TMPDIR, then /tmp).  Throws
  /// std::runtime_error when no file can be created there.
  [[nodiscard]] static SpillFile create_anonymous(const std::string& dir);
  /// The existing file at `path`, read-only.  Throws std::runtime_error
  /// when it cannot be opened.
  [[nodiscard]] static SpillFile open_read_only(const std::string& path);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Reads exactly `size` bytes at `offset` into `out` with pread (retrying
  /// short reads and EINTR).  Safe to call concurrently.  Throws
  /// std::runtime_error on a read error or end of file.
  void read_at(std::int64_t offset, std::size_t size, std::uint8_t* out) const;

  /// Bytes read_at() has read so far.
  [[nodiscard]] std::int64_t bytes_read() const noexcept {
    return bytes_read_.load(std::memory_order_relaxed);
  }

  /// Closes the descriptor.  Idempotent.
  void close() noexcept;

 private:
  int fd_ = -1;
  mutable std::atomic<std::int64_t> bytes_read_{0};
};

/// Where one unit's bytes live in a SpillStore.
struct SpillLocation {
  /// The bytes in the memory tier; null for a disk-tier unit.
  const std::uint8_t* resident = nullptr;
  /// A disk-tier unit's offset in the store's file.
  std::int64_t offset = 0;

  [[nodiscard]] bool on_disk() const noexcept { return resident == nullptr; }
};

/// What a store measured; a finished SpilledTrace reports its store's.  A
/// "block" is one unit: a trace block, or a replay-op chunk.
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

/// The two tiers behind every spill.  A writable store takes units through
/// append() — each reserves its bytes plus its index overhead from the
/// budget, or goes to disk once one was refused — then finish() seals it,
/// and bytes() reads any unit back from either tier.  The disk tier's file
/// is created when the first staged bytes are written, so a store whose
/// units all fit performs no file I/O.  A read-only store is a finished
/// store over an existing file.  The writer thread holds no address of the
/// store, so a store may be moved from at any time; move-assign only into a
/// store with no writer thread running (a finished or empty one).
class SpillStore {
 public:
  /// One appended unit: its writable bytes and where they will be read.
  struct Slot {
    std::uint8_t* bytes = nullptr;
    SpillLocation at;
  };

  /// An empty finished store.
  SpillStore();
  /// A writable store.  Units reserve from `budget` (borrowed, must outlive
  /// the appends; null sends every unit to disk).  The disk tier is an
  /// anonymous file in `dir` ("" = $TMPDIR, then /tmp); `async` writes it
  /// from a background thread with a bounded buffer queue, so append() only
  /// blocks when the queue is full.
  SpillStore(std::string dir, SpillBudget* budget, bool async);
  /// A finished store over the existing file at `path`: every location is
  /// an offset in it.  Throws std::runtime_error when it cannot be opened.
  [[nodiscard]] static SpillStore read_only(const std::string& path);

  /// Joins the async writer thread, if one started; queued bytes are
  /// written first.
  ~SpillStore();
  SpillStore(SpillStore&& other) noexcept;
  SpillStore& operator=(SpillStore&& other) noexcept;
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Appends a unit of `size` bytes, reserving `size + overhead` from the
  /// budget while the memory tier is open.  The caller fills the returned
  /// bytes before the next append() or finish().  Throws std::runtime_error
  /// if the (possibly asynchronous) disk tier failed.
  [[nodiscard]] Slot append(std::size_t size, std::int64_t overhead);

  /// Writes the staged disk-tier bytes, joins the writer thread and frees
  /// the staging buffer; bytes() may read the disk tier only after it.
  /// Rethrows the writer thread's error.
  void finish();

  /// The `size` bytes of the unit at `at`: resident bytes in place, disk
  /// bytes read into `scratch` (valid until its next use).  Safe to call
  /// concurrently on a finished store, each caller with its own scratch.
  /// Throws std::runtime_error when the file ends short of them.
  [[nodiscard]] const std::uint8_t* bytes(
      const SpillLocation& at, std::size_t size,
      std::vector<std::uint8_t>& scratch) const;

  [[nodiscard]] const SpillWriterStats& stats() const noexcept {
    return stats_;
  }
  /// Disk-tier bytes bytes() has read so far (thread-safe).
  [[nodiscard]] std::int64_t disk_bytes_read() const noexcept {
    return file_.bytes_read();
  }

 private:
  struct Async;

  /// Creates the disk tier's file on first use.
  void ensure_file();
  void flush_stage();
  /// The writer thread: writes queued buffers to `fd` until told to stop.
  static void async_loop(Async& async, int fd);
  /// Stops and joins the writer thread; queued buffers are written first.
  void join_async() noexcept;
  /// join_async(), then folds the thread's stats in and rethrows its error.
  void drain_async();

  std::string dir_;
  SpillBudget* budget_ = nullptr;
  bool async_mode_ = false;
  bool overflowed_ = true;  // sticky: the first refused reservation ends it
  bool finished_ = true;

  PageLog mem_log_;
  SpillFile file_;
  std::vector<std::uint8_t> stage_;  // pending disk-tier bytes
  std::int64_t disk_offset_ = 0;     // next disk-tier offset
  std::unique_ptr<Async> async_;
  SpillWriterStats stats_;
};

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

/// One block's index entry: its stamps, record count and the location of
/// its encoded records in the trace's store.
struct SpillBlock {
  NodeId node = 0;
  std::uint32_t count = 0;   // records in this block
  MicroSec sent_local = 0;   // node clock when the buffer was sent
  MicroSec recv_global = 0;  // collector clock when it arrived
  SpillLocation where;

  /// Bytes of the block's encoded records.
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return static_cast<std::size_t>(count) * Record::kEncodedSize;
  }
};

/// A finished trace: header and block index in memory, encoded records in
/// one store — the writer's two tiers, or the `.chtr` file open() indexed —
/// read back one block at a time.
class SpilledTrace {
 public:
  TraceHeader header;
  std::vector<SpillBlock> blocks;

  [[nodiscard]] std::uint64_t record_count() const noexcept;

  /// Order-sensitive FNV-1a digest of the header, block stamps, and every
  /// record's encoded bytes: equal digests mean save() writes byte-identical
  /// files (the determinism self-check compares these).
  [[nodiscard]] std::uint64_t digest() const;

  /// Decodes block `index`'s records into `out` (cleared first); callers
  /// reuse `out` across blocks so the merge holds one block per node, not
  /// the trace.  Throws std::runtime_error, naming the block, on a read or
  /// write record that no simulated file system makes: a negative offset
  /// (the cache simulators would index out of bounds with it), an offset
  /// past cfs::kMaxFileOffset, or a byte count outside
  /// [0, cfs::kMaxRequestBytes] (the cache replays walk every block of a
  /// request); and on a file that ends short of the block.  Safe to call
  /// concurrently (each caller owns its output).
  void read_block(std::size_t index, std::vector<Record>& out) const;

  /// Writes the whole trace to `path` as one trace file, without decoding a
  /// record, one block frame at a time.  Throws std::runtime_error on I/O
  /// failure.
  void save(const std::string& path) const;

  /// Payload bytes in the disk tier (what digest() re-reads).
  [[nodiscard]] std::int64_t disk_payload_bytes() const noexcept;

  /// The store's measurements (zeros for open()ed traces).
  [[nodiscard]] const SpillWriterStats& write_stats() const noexcept {
    return store_.stats();
  }

  /// Indexes a `.chtr` file without loading record payloads (read_block
  /// decodes them).  Throws std::runtime_error on a missing file, a bad
  /// magic or version, a damaged header (including a block size <= 0,
  /// which every block-indexing analysis divides by, and node counts no
  /// machine has: compute nodes outside [1, 2^20], I/O nodes outside
  /// [1, compute nodes]) and, in strict mode, a
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
  SpillStore store_;
};

/// The collector's incremental block store.  The header (minus trace_end)
/// must be final at construction: the finished trace carries this copy, and
/// finish() adds trace_end.  A writer destroyed unfinished only stops its
/// writer thread; its scratch file goes with it.
class SpillWriter {
 public:
  SpillWriter(const SpillTarget& target, const TraceHeader& header,
              const SpillWriterOptions& options = {});

  /// Appends one block's encoded records; called in collector flush order.
  /// Throws std::runtime_error if the (possibly asynchronous) disk tier
  /// failed.
  void append(const TraceBlock& block);

  /// Seals the store and returns the index as an owning SpilledTrace ending
  /// at `trace_end` (the backing file is deleted with it).
  [[nodiscard]] SpilledTrace finish(MicroSec trace_end);

 private:
  TraceHeader header_;
  std::vector<SpillBlock> index_;
  SpillStore store_;
  bool finished_ = false;
};

}  // namespace charisma::trace
