#include "trace/spill.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "cfs/types.hpp"
#include "net/hypercube.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace charisma::trace {

namespace {

constexpr std::size_t kStageBytes = 1u << 20;  // disk-tier staging buffer
constexpr std::size_t kStageCapacity = kStageBytes + (64u << 10);
constexpr std::size_t kMaxQueuedBuffers = 3;   // async double/triple buffering
// Charged per memory-tier block on top of the payload: the index entry and
// up to 7 bytes of PageLog alignment padding.
constexpr std::int64_t kMemBlockOverhead = 64;

template <typename T>
T take(std::ifstream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!in) throw std::runtime_error("trace file truncated");
  return v;
}

template <typename T>
void put_raw(std::vector<std::uint8_t>& out, T v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

/// Appends a trace file's header — magic, version, the header fields, the
/// label and `block_count` — to `out`.  With put_frame, the one encoder of
/// the layout that SpilledTrace::open reads; SpilledTrace::save is their
/// only caller.
void put_header(std::vector<std::uint8_t>& out, const TraceHeader& header,
                std::uint64_t block_count) {
  // Sized then copied: g++ 12 misreads a range insert of the magic into an
  // empty vector as an overflow (-Wstringop-overflow, -Warray-bounds).
  const std::size_t base = out.size();
  out.resize(base + sizeof kTraceMagic);
  std::memcpy(out.data() + base, kTraceMagic, sizeof kTraceMagic);
  put_raw<std::uint32_t>(out, kTraceVersion);
  put_raw<std::int32_t>(out, header.compute_nodes);
  put_raw<std::int32_t>(out, header.io_nodes);
  put_raw<std::int64_t>(out, header.block_size);
  put_raw<std::uint64_t>(out, header.seed);
  put_raw<std::int64_t>(out, header.trace_start);
  put_raw<std::int64_t>(out, header.trace_end);
  put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(header.label.size()));
  out.insert(out.end(), header.label.begin(), header.label.end());
  put_raw<std::uint64_t>(out, block_count);
}

/// Appends one block frame's stamps and record count; the frame's encoded
/// records follow.
void put_frame(std::vector<std::uint8_t>& out, const SpillBlock& block) {
  put_raw<std::int32_t>(out, block.node);
  put_raw<std::int64_t>(out, block.sent_local);
  put_raw<std::int64_t>(out, block.recv_global);
  put_raw<std::uint32_t>(out, block.count);
}

inline void fnv1a(std::uint64_t& h, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

template <typename T>
inline void fnv1a_value(std::uint64_t& h, T v) noexcept {
  fnv1a(h, &v, sizeof v);
}

std::string default_spill_dir(const std::string& dir) {
  std::string base = dir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  while (base.size() > 1 && base.back() == '/') base.pop_back();
  return base;
}

std::string unique_spill_name(const std::string& base) {
  static std::atomic<std::uint64_t> counter{0};
  return base + "/charisma_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".spill";
}

/// Writes all of `data` to `fd` (retrying short writes and EINTR); returns
/// the host ms spent blocked in write(2).  Throws std::runtime_error on
/// failure.
double spill_write(int fd, const void* data, std::size_t size) {
  const util::Stopwatch sw;
  const auto* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ::ssize_t n = ::write(fd, p + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("spill write failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return sw.elapsed_ms();
}

}  // namespace

// --- PageLog --------------------------------------------------------------

PageLog::PageLog(PageLog&& other) noexcept
    : mappings_(std::exchange(other.mappings_, {})),
      segment_(std::exchange(other.segment_, nullptr)),
      used_(std::exchange(other.used_, 0)) {}

PageLog& PageLog::operator=(PageLog&& other) noexcept {
  if (this != &other) {
    release();
    mappings_ = std::exchange(other.mappings_, {});
    segment_ = std::exchange(other.segment_, nullptr);
    used_ = std::exchange(other.used_, 0);
  }
  return *this;
}

std::uint8_t* PageLog::map(std::size_t size) {
  Mapping& m = mappings_.emplace_back();  // recorded before it can leak
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    mappings_.pop_back();
    throw std::bad_alloc();
  }
  m = {static_cast<std::uint8_t*>(p), size};
  return m.base;
}

std::uint8_t* PageLog::append(std::size_t n) {
  if (n > kSegmentBytes) return map(n);  // the current segment stays open
  std::size_t at = (used_ + 7) & ~std::size_t{7};
  if (segment_ == nullptr || n > kSegmentBytes - at) {
    segment_ = map(kSegmentBytes);
    ASAN_POISON_MEMORY_REGION(segment_, kSegmentBytes);
    at = 0;
  }
  used_ = at + n;
  ASAN_UNPOISON_MEMORY_REGION(segment_ + at, n);
  return segment_ + at;
}

std::size_t PageLog::mapped_bytes() const noexcept {
  std::size_t n = 0;
  for (const Mapping& m : mappings_) n += m.size;
  return n;
}

void PageLog::release() noexcept {
  for (const Mapping& m : mappings_) {
    ASAN_UNPOISON_MEMORY_REGION(m.base, m.size);  // the range may be reused
    ::munmap(m.base, m.size);
  }
  mappings_.clear();
  segment_ = nullptr;
  used_ = 0;
}

// --- SpillFile ------------------------------------------------------------

SpillFile::SpillFile(SpillFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      bytes_read_(other.bytes_read_.exchange(0, std::memory_order_relaxed)) {}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    bytes_read_.store(other.bytes_read_.exchange(0, std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  return *this;
}

void SpillFile::close() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

SpillFile SpillFile::create_anonymous(const std::string& dir) {
  SpillFile f;
  const std::string base = default_spill_dir(dir);
#ifdef O_TMPFILE
  f.fd_ = ::open(base.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC,
                 S_IRUSR | S_IWUSR);
  if (f.fd_ >= 0) return f;
#endif
  const std::string path = unique_spill_name(base);
  f.fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC | O_CLOEXEC,
                 S_IRUSR | S_IWUSR);
  if (f.fd_ < 0) {
    throw std::runtime_error("cannot create spill file in " + base + ": " +
                             std::strerror(errno));
  }
  // Unlinked at once: every read goes through the descriptor, and the inode
  // lives until it closes, so a crashed run leaves no litter.
  ::unlink(path.c_str());
  return f;
}

SpillFile SpillFile::open_read_only(const std::string& path) {
  SpillFile f;
  f.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (f.fd_ < 0) {
    throw std::runtime_error("cannot open " + path + ": " +
                             std::strerror(errno));
  }
  return f;
}

void SpillFile::read_at(std::int64_t offset, std::size_t size,
                        std::uint8_t* out) const {
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n =
        ::pread(fd_, out + got, size - got,
                static_cast<::off_t>(offset + static_cast<std::int64_t>(got)));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error(
          "spill file ends short of " + std::to_string(size) +
          " bytes at offset " + std::to_string(offset) +
          (n < 0 ? std::string(": ") + std::strerror(errno) : std::string()));
    }
    got += static_cast<std::size_t>(n);
  }
  bytes_read_.fetch_add(static_cast<std::int64_t>(size),
                        std::memory_order_relaxed);
}

// --- SpillStore -----------------------------------------------------------

/// Shared state between append()'s staging side and the background writer.
struct SpillStore::Async {
  util::Mutex mutex;
  std::condition_variable_any work_cv;
  std::condition_variable_any space_cv;
  std::deque<std::vector<std::uint8_t>> queue CHARISMA_GUARDED_BY(mutex);
  bool done CHARISMA_GUARDED_BY(mutex) = false;
  std::string error CHARISMA_GUARDED_BY(mutex);
  // Folded into the store's stats after join.
  double write_ms CHARISMA_GUARDED_BY(mutex) = 0.0;
  std::int64_t disk_bytes CHARISMA_GUARDED_BY(mutex) = 0;
  std::thread thread;
};

SpillStore::SpillStore() = default;

SpillStore::SpillStore(std::string dir, SpillBudget* budget, bool async)
    : dir_(std::move(dir)),
      budget_(budget),
      async_mode_(async),
      overflowed_(false),
      finished_(false) {
  // Reserved up front, also for a store that never reaches disk: freeing
  // this megabyte raises glibc's dynamic mmap threshold, and a study's later
  // sub-megabyte buffers then reuse heap pages instead of faulting in fresh
  // mappings.  Reserved lazily, it made perfbench's nas-study set-up about
  // 0.15 ms (~20 %) slower.
  stage_.reserve(kStageCapacity);
}

SpillStore SpillStore::read_only(const std::string& path) {
  SpillStore s;
  s.file_ = SpillFile::open_read_only(path);
  return s;
}

SpillStore::~SpillStore() { join_async(); }

SpillStore::SpillStore(SpillStore&& other) noexcept = default;
SpillStore& SpillStore::operator=(SpillStore&& other) noexcept = default;

SpillStore::Slot SpillStore::append(std::size_t size, std::int64_t overhead) {
  CHECK(!finished_, "SpillStore::append after finish");
  if (!overflowed_ && budget_ != nullptr &&
      budget_->try_reserve(static_cast<std::int64_t>(size) + overhead)) {
    ++stats_.mem_blocks;
    std::uint8_t* p = mem_log_.append(size);
    return {p, {p, 0}};
  }
  overflowed_ = true;  // sticky: the resident tier stays a stream prefix
  if (stage_.size() >= kStageBytes) flush_stage();
  ++stats_.disk_blocks;
  const std::size_t base = stage_.size();
  stage_.resize(base + size);
  const Slot slot{stage_.data() + base, {nullptr, disk_offset_}};
  disk_offset_ += static_cast<std::int64_t>(size);
  return slot;
}

void SpillStore::finish() {
  if (finished_) return;
  finished_ = true;
  flush_stage();
  drain_async();
  stage_ = {};
}

const std::uint8_t* SpillStore::bytes(const SpillLocation& at,
                                      std::size_t size,
                                      std::vector<std::uint8_t>& scratch) const {
  if (!at.on_disk()) return at.resident;
  DCHECK(finished_, "SpillStore::bytes reads the disk tier before finish");
  scratch.resize(size);
  file_.read_at(at.offset, size, scratch.data());
  return scratch.data();
}

void SpillStore::ensure_file() {
  if (!file_.valid()) file_ = SpillFile::create_anonymous(dir_);
}

void SpillStore::flush_stage() {
  if (stage_.empty()) return;
  if (!async_mode_) {
    ensure_file();
    stats_.write_ms += spill_write(file_.fd(), stage_.data(), stage_.size());
    stats_.disk_bytes += static_cast<std::int64_t>(stage_.size());
    stage_.clear();
    return;
  }
  if (!async_) {
    // Created here, so the writer thread needs only the descriptor.
    ensure_file();
    async_ = std::make_unique<Async>();
    async_->thread = std::thread(
        [a = async_.get(), fd = file_.fd()] { async_loop(*a, fd); });
  }
  // Hand the filled buffer to the writer and leave stage_ a fresh one, so
  // append() keeps encoding while the disk write runs behind it.
  std::vector<std::uint8_t> buf;
  buf.reserve(kStageCapacity);
  std::swap(buf, stage_);
  {
    const util::MutexLock lock(async_->mutex);
    const util::Stopwatch stall;
    while (async_->queue.size() >= kMaxQueuedBuffers &&
           async_->error.empty()) {
      async_->space_cv.wait(async_->mutex);
    }
    stats_.append_stall_ms += stall.elapsed_ms();
    if (!async_->error.empty()) {
      throw std::runtime_error(async_->error);
    }
    async_->queue.push_back(std::move(buf));
  }
  async_->work_cv.notify_one();
}

void SpillStore::async_loop(Async& async, int fd) {
  double write_ms = 0.0;
  std::int64_t bytes = 0;
  try {
    for (;;) {
      std::vector<std::uint8_t> buf;
      {
        const util::MutexLock lock(async.mutex);
        while (async.queue.empty() && !async.done) {
          async.work_cv.wait(async.mutex);
        }
        if (async.queue.empty()) break;  // done and drained
        buf = std::move(async.queue.front());
        async.queue.pop_front();
      }
      async.space_cv.notify_one();
      write_ms += spill_write(fd, buf.data(), buf.size());
      bytes += static_cast<std::int64_t>(buf.size());
    }
  } catch (const std::exception& e) {
    const util::MutexLock lock(async.mutex);
    async.error = e.what();
    async.write_ms = write_ms;
    async.disk_bytes = bytes;
    async.space_cv.notify_all();  // unblock a stalled flush_stage()
    return;
  }
  const util::MutexLock lock(async.mutex);
  async.write_ms = write_ms;
  async.disk_bytes = bytes;
}

void SpillStore::join_async() noexcept {
  if (!async_ || !async_->thread.joinable()) return;
  {
    const util::MutexLock lock(async_->mutex);
    async_->done = true;
  }
  async_->work_cv.notify_all();
  async_->thread.join();
}

void SpillStore::drain_async() {
  if (!async_) return;
  join_async();
  const util::MutexLock lock(async_->mutex);
  stats_.write_ms += async_->write_ms;
  stats_.disk_bytes += async_->disk_bytes;
  async_->write_ms = 0.0;
  async_->disk_bytes = 0;
  if (!async_->error.empty()) {
    throw std::runtime_error(async_->error);
  }
}

// --- SpilledTrace ---------------------------------------------------------

std::uint64_t SpilledTrace::record_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : blocks) n += b.count;
  return n;
}

std::uint64_t SpilledTrace::digest() const {
  // Header fields, then per block the stamps, the count, and the records'
  // encoded bytes — exactly the bytes the store holds for the block.
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  fnv1a_value(h, header.compute_nodes);
  fnv1a_value(h, header.io_nodes);
  fnv1a_value(h, header.block_size);
  fnv1a_value(h, header.seed);
  fnv1a_value(h, header.trace_start);
  fnv1a_value(h, header.trace_end);
  fnv1a(h, header.label.data(), header.label.size());
  std::vector<std::uint8_t> scratch;
  for (const auto& b : blocks) {
    fnv1a_value(h, b.node);
    fnv1a_value(h, b.sent_local);
    fnv1a_value(h, b.recv_global);
    fnv1a_value(h, b.count);
    fnv1a(h, store_.bytes(b.where, b.payload_bytes(), scratch),
          b.payload_bytes());
  }
  return h;
}

void SpilledTrace::read_block(std::size_t index,
                              std::vector<Record>& out) const {
  CHECK(index < blocks.size(), "spill block ", index, " out of range (",
        blocks.size(), " blocks)");
  const SpillBlock& b = blocks[index];
  std::vector<std::uint8_t> scratch;
  const std::uint8_t* p = store_.bytes(b.where, b.payload_bytes(), scratch);
  out.clear();
  out.reserve(b.count);
  for (std::uint32_t i = 0; i < b.count; ++i, p += Record::kEncodedSize) {
    const Record r = Record::decode(p);
    if (r.is_data()) {
      const auto bad = [&](const char* what, std::int64_t value) {
        return std::runtime_error("trace block " + std::to_string(index) +
                                  " holds a " + to_string(r.kind) +
                                  " record " + what + " " +
                                  std::to_string(value));
      };
      if (r.offset < 0) throw bad("at negative offset", r.offset);
      if (r.offset > cfs::kMaxFileOffset) throw bad("at offset", r.offset);
      if (r.bytes < 0 || r.bytes > cfs::kMaxRequestBytes) {
        throw bad("of byte count", r.bytes);
      }
    }
    out.push_back(r);
  }
}

void SpilledTrace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  std::vector<std::uint8_t> frame;
  put_header(frame, header, blocks.size());
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  std::vector<std::uint8_t> scratch;
  for (const SpillBlock& b : blocks) {
    frame.clear();
    put_frame(frame, b);
    const std::uint8_t* p = store_.bytes(b.where, b.payload_bytes(), scratch);
    frame.insert(frame.end(), p, p + b.payload_bytes());
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }
  out.close();
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::int64_t SpilledTrace::disk_payload_bytes() const noexcept {
  std::int64_t n = 0;
  for (const auto& b : blocks) {
    if (b.where.on_disk()) n += static_cast<std::int64_t>(b.payload_bytes());
  }
  return n;
}

SpilledTrace SpilledTrace::open(const std::string& path, bool tolerant,
                                bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  const std::int64_t file_size = static_cast<std::int64_t>(in.tellg());
  in.seekg(0);
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kTraceMagic, sizeof magic) != 0) {
    throw std::runtime_error("not a CHARISMA trace: " + path);
  }
  if (take<std::uint32_t>(in) != kTraceVersion) {
    throw std::runtime_error("unsupported trace version");
  }
  SpilledTrace t;
  t.store_ = SpillStore::read_only(path);
  t.header.compute_nodes = take<std::int32_t>(in);
  t.header.io_nodes = take<std::int32_t>(in);
  // Counts no machine has would size the cache replays and the strided
  // rewriter: a cube holds at most 2^kMaxDimension compute nodes, and each
  // I/O node taps onto a compute node of its own.
  const std::int32_t compute = t.header.compute_nodes;
  const std::int32_t io = t.header.io_nodes;
  if (compute < 1 || compute > (1 << net::Hypercube::kMaxDimension) ||
      io < 1 || io > compute) {
    throw std::runtime_error("trace header's " + std::to_string(compute) +
                             " compute and " + std::to_string(io) +
                             " I/O nodes fit no machine: " + path);
  }
  t.header.block_size = take<std::int64_t>(in);
  if (t.header.block_size <= 0) {
    throw std::runtime_error("trace block size " +
                             std::to_string(t.header.block_size) +
                             " is not positive: " + path);
  }
  t.header.seed = take<std::uint64_t>(in);
  t.header.trace_start = take<std::int64_t>(in);
  t.header.trace_end = take<std::int64_t>(in);
  {
    const auto n = take<std::uint32_t>(in);
    if (n > (1u << 20)) throw std::runtime_error("trace label too long");
    t.header.label.assign(n, '\0');
    in.read(t.header.label.data(), n);
    if (!in) throw std::runtime_error("trace file truncated");
  }

  const auto nblocks = take<std::uint64_t>(in);
  const std::uint64_t max_plausible_blocks =
      static_cast<std::uint64_t>(file_size) / 24 + 1;
  t.blocks.reserve(
      std::min(tolerant ? max_plausible_blocks : nblocks,
               max_plausible_blocks));
  // Tolerant mode scans frames to end-of-file rather than trusting the
  // declared count: a damaged count must not hide complete blocks that sit
  // on disk, and the tolerant-reader contract says those survive.  Strict
  // mode requires the declared count.
  std::uint64_t scanned = 0;
  while (tolerant ? true : scanned < nblocks) {
    SpillBlock b;
    try {
      if (tolerant) {
        // Probe for end-of-data before committing to a frame.
        if (static_cast<std::int64_t>(in.tellg()) >= file_size) break;
      }
      b.node = take<std::int32_t>(in);
      b.sent_local = take<std::int64_t>(in);
      b.recv_global = take<std::int64_t>(in);
      b.count = take<std::uint32_t>(in);
      b.where.offset = static_cast<std::int64_t>(in.tellg());
      if (b.where.offset < 0 ||
          static_cast<std::int64_t>(b.count) >
              (file_size - b.where.offset) /
                  static_cast<std::int64_t>(Record::kEncodedSize)) {
        throw std::runtime_error("trace file truncated");
      }
      in.seekg(b.where.offset + static_cast<std::int64_t>(b.payload_bytes()));
    } catch (const std::runtime_error&) {
      if (!tolerant) throw;
      if (truncated != nullptr) *truncated = true;
      return t;  // keep every complete block before the crash point
    }
    t.blocks.push_back(b);
    ++scanned;
  }
  if (tolerant && truncated != nullptr && scanned != nblocks) {
    *truncated = true;  // the declared count was damaged
  }
  return t;
}

// --- SpillWriter ----------------------------------------------------------

SpillWriter::SpillWriter(const SpillTarget& target, const TraceHeader& header,
                         const SpillWriterOptions& options)
    : header_(header),
      store_(target.dir, options.budget, options.async) {}

void SpillWriter::append(const TraceBlock& block) {
  CHECK(!finished_, "SpillWriter::append after finish");
  SpillBlock idx;
  idx.node = block.node;
  idx.count = static_cast<std::uint32_t>(block.records.size());
  idx.sent_local = block.sent_local;
  idx.recv_global = block.recv_global;
  const SpillStore::Slot slot =
      store_.append(idx.payload_bytes(), kMemBlockOverhead);
  idx.where = slot.at;
  std::uint8_t* p = slot.bytes;
  for (const auto& r : block.records) {
    r.encode(p);
    p += Record::kEncodedSize;
  }
  index_.push_back(idx);
}

SpilledTrace SpillWriter::finish(MicroSec trace_end) {
  CHECK(!finished_, "SpillWriter::finish called twice");
  finished_ = true;
  store_.finish();
  SpilledTrace t;
  t.header = header_;
  t.header.trace_end = trace_end;
  t.blocks = std::move(index_);
  t.store_ = std::move(store_);
  return t;
}

}  // namespace charisma::trace
