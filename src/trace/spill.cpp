#include "trace/spill.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "cfs/types.hpp"
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
constexpr std::size_t kMaxQueuedBuffers = 3;   // async double/triple buffering
// Charged per memory-tier block on top of the payload: the index entry, the
// payload pointer and up to 7 bytes of PageLog alignment padding.
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

std::string proc_fd_path(int fd) {
  return "/proc/self/fd/" + std::to_string(fd);
}

/// True when an ifstream can re-open the descriptor's inode through /proc —
/// the precondition for unlinking an anonymous spill while still reading it.
bool proc_fd_readable(int fd) {
  const std::ifstream probe(proc_fd_path(fd), std::ios::binary);
  return probe.is_open();
}

std::string unique_spill_name(const std::string& base, const char* tag) {
  static std::atomic<std::uint64_t> counter{0};
  return base + "/charisma_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".spill";
}

}  // namespace

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
      read_path_(std::move(other.read_path_)),
      remove_path_(std::move(other.remove_path_)) {
  other.read_path_.clear();
  other.remove_path_.clear();
}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    close_and_remove();
    fd_ = std::exchange(other.fd_, -1);
    read_path_ = std::move(other.read_path_);
    remove_path_ = std::move(other.remove_path_);
    other.read_path_.clear();
    other.remove_path_.clear();
  }
  return *this;
}

void SpillFile::close_and_remove() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (!remove_path_.empty()) std::remove(remove_path_.c_str());
  remove_path_.clear();
  read_path_.clear();
}

SpillFile SpillFile::create_anonymous(const std::string& dir,
                                      const char* tag) {
  SpillFile f;
  const std::string base = default_spill_dir(dir);
#ifdef O_TMPFILE
  const int tmp_fd = ::open(base.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC,
                            S_IRUSR | S_IWUSR);
  if (tmp_fd >= 0) {
    if (proc_fd_readable(tmp_fd)) {
      f.fd_ = tmp_fd;
      f.read_path_ = proc_fd_path(tmp_fd);
      return f;
    }
    ::close(tmp_fd);  // no /proc: fall back to a path-openable file
  }
#endif
  const std::string path = unique_spill_name(base, tag);
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC | O_CLOEXEC,
                        S_IRUSR | S_IWUSR);
  if (fd < 0) {
    throw std::runtime_error("cannot create spill file in " + base + ": " +
                             std::strerror(errno));
  }
  f.fd_ = fd;
  if (proc_fd_readable(fd)) {
    // Unlink immediately: the inode lives until the descriptor closes, so a
    // crashed run leaves no litter in the spill directory.
    std::remove(path.c_str());
    f.read_path_ = proc_fd_path(fd);
  } else {
    f.read_path_ = path;
    f.remove_path_ = path;
  }
  return f;
}

SpillFile SpillFile::reference(std::string path) {
  SpillFile f;
  f.read_path_ = std::move(path);
  return f;
}

// --- SpilledTrace ---------------------------------------------------------

std::uint64_t SpilledTrace::record_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : blocks) n += b.count;
  return n;
}

std::uint64_t SpilledTrace::digest() const {
  // Header fields, then per block the stamps, the count, and the records'
  // encoded bytes — which are exactly the payload bytes in either tier, so
  // memory-tier blocks fold their resident buffer and disk blocks fold
  // straight from the file.
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  fnv1a_value(h, header.compute_nodes);
  fnv1a_value(h, header.io_nodes);
  fnv1a_value(h, header.block_size);
  fnv1a_value(h, header.seed);
  fnv1a_value(h, header.trace_start);
  fnv1a_value(h, header.trace_end);
  fnv1a(h, header.label.data(), header.label.size());
  std::ifstream in;
  bool opened = false;
  std::vector<std::uint8_t> buf;
  for (const auto& b : blocks) {
    fnv1a_value(h, b.node);
    fnv1a_value(h, b.sent_local);
    fnv1a_value(h, b.recv_global);
    fnv1a_value(h, b.count);
    const std::size_t size =
        static_cast<std::size_t>(b.count) * Record::kEncodedSize;
    if (b.in_memory()) {
      fnv1a(h, mem_payloads_[b.mem_index], size);
      continue;
    }
    if (!opened) {
      in = open_payload();
      opened = true;
      if (!in.is_open()) {
        throw std::runtime_error("cannot open spilled trace: " +
                                 file_.read_path());
      }
    }
    buf.resize(size);
    in.seekg(b.payload_offset);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    if (!in) {
      throw std::runtime_error("spilled trace truncated: " +
                               file_.read_path());
    }
    fnv1a(h, buf.data(), buf.size());
  }
  return h;
}

void SpilledTrace::read_block(std::size_t index, std::ifstream& in,
                              std::vector<Record>& out) const {
  CHECK(index < blocks.size(), "spill block ", index, " out of range (",
        blocks.size(), " blocks)");
  const SpillBlock& b = blocks[index];
  out.clear();
  out.reserve(b.count);
  // One decode loop for both tiers: a memory-tier record decodes in place,
  // a disk-tier record from the stream.
  const std::uint8_t* resident =
      b.in_memory() ? mem_payloads_[b.mem_index] : nullptr;
  if (resident == nullptr) in.seekg(b.payload_offset);
  std::uint8_t buf[Record::kEncodedSize];
  for (std::uint32_t i = 0; i < b.count; ++i) {
    const std::uint8_t* p = buf;
    if (resident != nullptr) {
      p = resident + static_cast<std::size_t>(i) * Record::kEncodedSize;
    } else if (!in.read(reinterpret_cast<char*>(buf), sizeof buf)) {
      throw std::runtime_error("spilled trace truncated: " +
                               file_.read_path());
    }
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

std::ifstream SpilledTrace::open_payload() const {
  if (!file_.valid()) return {};  // every block is resident
  std::ifstream in(file_.read_path(), std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open spilled trace: " +
                             file_.read_path());
  }
  return in;
}

void SpilledTrace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file: " + path);
  std::vector<std::uint8_t> frame;
  put_header(frame, header, blocks.size());
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
  std::ifstream in = open_payload();
  std::vector<char> chunk;  // disk-tier bytes in transit, at most kStageBytes
  for (const SpillBlock& b : blocks) {
    frame.clear();
    put_frame(frame, b);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    std::size_t left = static_cast<std::size_t>(b.count) * Record::kEncodedSize;
    if (b.in_memory()) {
      out.write(reinterpret_cast<const char*>(mem_payloads_[b.mem_index]),
                static_cast<std::streamsize>(left));
      continue;
    }
    in.seekg(b.payload_offset);
    while (left > 0) {
      chunk.resize(std::min(left, kStageBytes));
      if (!in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()))) {
        throw std::runtime_error("spilled trace truncated: " +
                                 file_.read_path());
      }
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      left -= chunk.size();
    }
  }
  out.close();
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::int64_t SpilledTrace::disk_payload_bytes() const noexcept {
  std::int64_t n = 0;
  for (const auto& b : blocks) {
    if (!b.in_memory()) {
      n += static_cast<std::int64_t>(b.count) *
           static_cast<std::int64_t>(Record::kEncodedSize);
    }
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
  t.file_ = SpillFile::reference(path);
  t.header.compute_nodes = take<std::int32_t>(in);
  t.header.io_nodes = take<std::int32_t>(in);
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
      b.payload_offset = static_cast<std::int64_t>(in.tellg());
      if (b.payload_offset < 0 ||
          static_cast<std::int64_t>(b.count) >
              (file_size - b.payload_offset) /
                  static_cast<std::int64_t>(Record::kEncodedSize)) {
        throw std::runtime_error("trace file truncated");
      }
      in.seekg(b.payload_offset +
               static_cast<std::int64_t>(b.count) *
                   static_cast<std::int64_t>(Record::kEncodedSize));
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

/// Shared state between append()'s staging side and the background writer.
struct SpillWriter::Async {
  util::Mutex mutex;
  std::condition_variable_any work_cv;
  std::condition_variable_any space_cv;
  std::deque<std::vector<std::uint8_t>> queue CHARISMA_GUARDED_BY(mutex);
  bool done CHARISMA_GUARDED_BY(mutex) = false;
  std::string error CHARISMA_GUARDED_BY(mutex);
  // Folded into the writer's stats after join.
  double write_ms CHARISMA_GUARDED_BY(mutex) = 0.0;
  std::int64_t disk_bytes CHARISMA_GUARDED_BY(mutex) = 0;
  std::thread thread;
};

SpillWriter::SpillWriter(const SpillTarget& target, const TraceHeader& header,
                         const SpillWriterOptions& options)
    : target_(target), header_(header), options_(options) {
  stage_.reserve(kStageBytes + (64u << 10));
}

SpillWriter::~SpillWriter() { join_async(); }

void SpillWriter::ensure_file() {
  if (!file_.valid()) {
    file_ = SpillFile::create_anonymous(target_.dir, "trace");
  }
}

void SpillWriter::append(const TraceBlock& block) {
  CHECK(!finished_, "SpillWriter::append after finish");
  const auto count = static_cast<std::uint32_t>(block.records.size());
  const std::size_t payload = block.records.size() * Record::kEncodedSize;
  SpillBlock idx;
  idx.node = block.node;
  idx.sent_local = block.sent_local;
  idx.recv_global = block.recv_global;
  idx.count = count;
  if (!overflowed_ && options_.budget != nullptr &&
      options_.budget->try_reserve(static_cast<std::int64_t>(payload) +
                                   kMemBlockOverhead)) {
    std::uint8_t* p = mem_log_.append(payload);
    idx.payload_offset = SpillBlock::kMemoryTier;
    idx.mem_index = static_cast<std::uint32_t>(mem_payloads_.size());
    mem_payloads_.push_back(p);
    for (const auto& r : block.records) {
      r.encode(p);
      p += Record::kEncodedSize;
    }
  } else {
    overflowed_ = true;  // sticky: the resident tier stays a stream prefix
    idx.payload_offset = disk_offset_;
    const std::size_t base = stage_.size();
    stage_.resize(base + payload);
    std::uint8_t* p = stage_.data() + base;
    for (const auto& r : block.records) {
      r.encode(p);
      p += Record::kEncodedSize;
    }
    disk_offset_ += static_cast<std::int64_t>(payload);
    ++disk_blocks_;
    if (stage_.size() >= kStageBytes) flush_stage();
  }
  index_.push_back(idx);
}

void SpillWriter::flush_stage() {
  if (stage_.empty()) return;
  if (!options_.async) {
    ensure_file();
    stats_.write_ms += spill_write(file_.fd(), stage_.data(), stage_.size());
    stats_.disk_bytes += static_cast<std::int64_t>(stage_.size());
    stage_.clear();
    return;
  }
  if (!async_) {
    async_ = std::make_unique<Async>();
    async_->thread = std::thread([this] { async_loop(); });
  }
  // Hand the filled buffer to the writer and leave stage_ a fresh one, so
  // append() keeps encoding while the disk write runs behind it.
  std::vector<std::uint8_t> buf;
  buf.reserve(kStageBytes + (64u << 10));
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

void SpillWriter::async_loop() {
  double write_ms = 0.0;
  std::int64_t bytes = 0;
  try {
    for (;;) {
      std::vector<std::uint8_t> buf;
      {
        const util::MutexLock lock(async_->mutex);
        while (async_->queue.empty() && !async_->done) {
          async_->work_cv.wait(async_->mutex);
        }
        if (async_->queue.empty()) break;  // done and drained
        buf = std::move(async_->queue.front());
        async_->queue.pop_front();
      }
      async_->space_cv.notify_one();
      // file_ is writer-thread-only between thread start and join: the
      // staging side never calls ensure_file() in async mode.
      ensure_file();
      write_ms += spill_write(file_.fd(), buf.data(), buf.size());
      bytes += static_cast<std::int64_t>(buf.size());
    }
  } catch (const std::exception& e) {
    const util::MutexLock lock(async_->mutex);
    async_->error = e.what();
    async_->write_ms = write_ms;
    async_->disk_bytes = bytes;
    async_->space_cv.notify_all();  // unblock a stalled flush_stage()
    return;
  }
  const util::MutexLock lock(async_->mutex);
  async_->write_ms = write_ms;
  async_->disk_bytes = bytes;
}

void SpillWriter::join_async() noexcept {
  if (!async_ || !async_->thread.joinable()) return;
  {
    const util::MutexLock lock(async_->mutex);
    async_->done = true;
  }
  async_->work_cv.notify_all();
  async_->thread.join();
}

void SpillWriter::drain_async() {
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

SpilledTrace SpillWriter::finish(MicroSec trace_end) {
  CHECK(!finished_, "SpillWriter::finish called twice");
  finished_ = true;
  flush_stage();
  drain_async();
  stats_.mem_blocks = static_cast<std::uint64_t>(mem_payloads_.size());
  stats_.disk_blocks = disk_blocks_;
  SpilledTrace t;
  t.header = header_;
  t.header.trace_end = trace_end;
  t.blocks = std::move(index_);
  t.mem_payloads_ = std::move(mem_payloads_);
  t.mem_log_ = std::move(mem_log_);
  t.file_ = std::move(file_);
  t.write_stats_ = stats_;
  return t;
}

}  // namespace charisma::trace
