#include "cache/replay.hpp"

#include <cstring>
#include <limits>

#include "trace/record.hpp"

namespace charisma::cache {

namespace {

// Charged per memory-tier chunk on top of the encoded payload: the chunk's
// index entry plus up to 7 bytes of PageLog alignment padding.
constexpr std::int64_t kMemChunkOverhead = 48;

inline std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Bakes ReplayLog's reuse bits in one forward pass: add() every op in
/// stream order, then take().  Per file it keeps a dense array over the
/// file's block extent holding 1 + the index of each block's latest access,
/// so an access sets its own earlier bit and its predecessor's later bit.
/// The arrays are bounded by the blocks the simulated disks allocated; a
/// stream that reaches far past what its accesses justify (a synthetic op
/// at a huge offset, say) gives the bits up rather than the memory.
class ReuseBitsPass {
 public:
  void add(const detail::ReplayOp& op);
  /// Two bits per block access, or empty when the bits were given up.
  /// Frees the per-file arrays.
  [[nodiscard]] std::vector<std::uint64_t> take();

 private:
  void give_up();

  std::vector<std::uint64_t> bits_;
  std::vector<std::vector<std::uint32_t>> latest_;  // by file id
  std::uint64_t accesses_ = 0;
  std::uint64_t extents_ = 0;  // file slots plus per-file array sizes
  bool given_up_ = false;
};

void ReuseBitsPass::add(const detail::ReplayOp& op) {
  if (given_up_) return;
  // Dense arrays beyond this many slots must be paid for by accesses.
  constexpr std::uint64_t kExtentSlack = std::uint64_t{1} << 22;
  const auto [first, last] = detail::span_of(op, util::kBlockSize);
  const auto blocks = static_cast<std::uint64_t>(last - first + 1);
  if (first < 0 || op.file < 0 ||
      accesses_ + blocks > std::numeric_limits<std::uint32_t>::max()) {
    give_up();
    return;
  }
  // File ids are inode numbers, dense from zero: index by them directly,
  // charging the per-file slots against the same extent budget.
  const auto file = static_cast<std::size_t>(op.file);
  const auto extent = static_cast<std::size_t>(last) + 1;
  if (file >= latest_.size() || extent > latest_[file].size()) {
    const std::size_t files = std::max(latest_.size(), file + 1);
    const std::size_t had = file < latest_.size() ? latest_[file].size() : 0;
    extents_ += (files - latest_.size()) + (extent - had);
    if (extents_ > kExtentSlack + 2 * (accesses_ + blocks)) {
      give_up();
      return;
    }
    latest_.resize(files);
    latest_[file].resize(extent, 0);
  }
  std::uint32_t* latest = latest_[file].data();
  const std::uint64_t end = accesses_ + blocks;
  const auto words = static_cast<std::size_t>((end * 2 + 63) / 64);
  if (words > bits_.size()) bits_.resize(words, 0);
  std::uint64_t access = accesses_;
  for (std::int64_t b = first; b <= last; ++b, ++access) {
    std::uint32_t& prev = latest[b];
    if (prev != 0) {
      const std::uint64_t earlier = access * 2;
      const std::uint64_t later = std::uint64_t{prev - 1} * 2 + 1;
      bits_[earlier >> 6] |= std::uint64_t{1} << (earlier & 63);
      bits_[later >> 6] |= std::uint64_t{1} << (later & 63);
    }
    prev = static_cast<std::uint32_t>(access + 1);
  }
  accesses_ = end;
}

std::vector<std::uint64_t> ReuseBitsPass::take() {
  latest_ = {};
  return std::move(bits_);
}

void ReuseBitsPass::give_up() {
  given_up_ = true;
  bits_ = {};
  latest_ = {};
}

}  // namespace

namespace detail {

void encode_ops(const ReplayOp* ops, std::size_t n,
                std::vector<std::uint8_t>& out) {
  JobId prev_job = cfs::kNoJob;
  FileId prev_file = cfs::kNoFile;
  NodeId prev_node = 0;
  std::int64_t prev_end = 0;
  std::int64_t prev_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ReplayOp& op = ops[i];
    const bool same_session = op.job == prev_job && op.file == prev_file;
    const bool same_node = op.node == prev_node;
    const bool sequential = op.offset == prev_end;
    const bool same_bytes = op.bytes == prev_bytes;
    std::uint8_t tag = op.is_read ? kTagIsRead : 0;
    if (same_session) tag |= kTagSameSession;
    if (same_node) tag |= kTagSameNode;
    if (sequential) tag |= kTagSequential;
    if (same_bytes) tag |= kTagSameBytes;
    out.push_back(tag);
    if (!same_session) {
      put_varint(out, zigzag(static_cast<std::int64_t>(op.job) - prev_job));
      put_varint(out, zigzag(static_cast<std::int64_t>(op.file) - prev_file));
    }
    if (!same_node) {
      put_varint(out, zigzag(static_cast<std::int64_t>(op.node) - prev_node));
    }
    if (!sequential) put_varint(out, zigzag(op.offset - prev_end));
    if (!same_bytes) put_varint(out, zigzag(op.bytes - prev_bytes));
    prev_job = op.job;
    prev_file = op.file;
    prev_node = op.node;
    prev_bytes = op.bytes;
    prev_end = op.offset + op.bytes;
  }
}

std::size_t decode_ops(const std::uint8_t* data, std::size_t size,
                       std::size_t n, ReplayOp* out) {
  std::size_t pos = 0;
  const auto varint = [&]() -> std::uint64_t {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= size) {
        throw std::runtime_error("replay op chunk truncated");
      }
      const std::uint8_t b = data[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
      shift += 7;
      if (shift >= 64) {
        throw std::runtime_error("replay op varint overflow");
      }
    }
  };
  JobId prev_job = cfs::kNoJob;
  FileId prev_file = cfs::kNoFile;
  NodeId prev_node = 0;
  std::int64_t prev_end = 0;
  std::int64_t prev_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pos >= size) throw std::runtime_error("replay op chunk truncated");
    const std::uint8_t tag = data[pos++];
    ReplayOp op;
    op.is_read = (tag & kTagIsRead) != 0;
    if ((tag & kTagSameSession) != 0) {
      op.job = prev_job;
      op.file = prev_file;
    } else {
      op.job = static_cast<JobId>(prev_job + unzigzag(varint()));
      op.file = static_cast<FileId>(prev_file + unzigzag(varint()));
    }
    op.node = (tag & kTagSameNode) != 0
                  ? prev_node
                  : static_cast<NodeId>(prev_node + unzigzag(varint()));
    op.offset = (tag & kTagSequential) != 0 ? prev_end
                                            : prev_end + unzigzag(varint());
    op.bytes = (tag & kTagSameBytes) != 0 ? prev_bytes
                                          : prev_bytes + unzigzag(varint());
    out[i] = op;
    prev_job = op.job;
    prev_file = op.file;
    prev_node = op.node;
    prev_bytes = op.bytes;
    prev_end = op.offset + op.bytes;
  }
  return pos;
}

}  // namespace detail

ReplayLog::ReplayLog(std::vector<detail::ReplayOp> ops)
    : ops_(std::move(ops)) {
  ReuseBitsPass reuse;
  for (const detail::ReplayOp& op : ops_) reuse.add(op);
  reuse_bits_ = reuse.take();
}

ReplayLog::ReplayLog(ReplayOpSpill spill,
                     const std::set<SessionKey>& read_only)
    : spill_(std::move(spill)), file_mode_(true) {
  // One decode pass: memoized set lookups (ops arrive in bursts for one
  // (job, file), so one lookup covers the run — the memo survives chunk
  // boundaries even though the decode predictor resets) resolve the
  // read-only flags, and the same pass bakes the reuse bits.
  ReuseBitsPass reuse;
  SessionKey last_key{cfs::kNoJob, cfs::kNoFile};
  bool last_read_only = false;
  const auto read_only_of = [&](const detail::ReplayOp& op) {
    const SessionKey key{op.job, op.file};
    if (key != last_key) {
      last_key = key;
      last_read_only = read_only.find(key) != read_only.end();
    }
    return last_read_only;
  };
  if (spill_.decode_resident()) {
    // The flat resolved ops land here and traversals run in memory.
    ops_.reserve(static_cast<std::size_t>(spill_.count()));
    for_each_decoded_chunk([&](detail::ReplayOp* ops, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        detail::ReplayOp op = ops[i];
        op.read_only_session = read_only_of(op);
        ops_.push_back(op);
        reuse.add(op);
      }
    });
    spill_ = ReplayOpSpill();  // drop the encoded tier; ops_ is the log
    file_mode_ = false;
  } else {
    // A 1-bit-per-op flag array every traversal then reads for free.
    read_only_bits_.assign(
        static_cast<std::size_t>((spill_.count() + 63) / 64), 0);
    std::uint64_t bit = 0;
    for_each_decoded_chunk([&](detail::ReplayOp* ops, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i, ++bit) {
        if (read_only_of(ops[i])) {
          read_only_bits_[bit >> 6] |= 1ull << (bit & 63);
        }
        reuse.add(ops[i]);
      }
    });
  }
  reuse_bits_ = reuse.take();
}

ReplayOpSink::ReplayOpSink(ReplayOpSinkOptions options)
    : budget_(options.budget) {
  spill_.store_ =
      trace::SpillStore(std::move(options.dir), budget_, /*async=*/false);
  buf_.reserve(ReplayLog::kChunkOps);
}

void ReplayOpSink::on_record(const trace::Record& r) {
  const bool is_read = r.kind == trace::EventKind::kRead;
  if ((!is_read && r.kind != trace::EventKind::kWrite) || r.bytes <= 0) {
    return;
  }
  // read_only_session stays unencoded: sessions are still accumulating
  // while this sink runs, so ReplayLog resolves the flag at read time.
  buf_.push_back(
      {r.file, r.job, r.node, r.offset, r.bytes, is_read, false});
  ++spill_.count_;
  if (buf_.size() >= ReplayLog::kChunkOps) flush_buffer();
}

void ReplayOpSink::flush_buffer() {
  if (buf_.empty()) return;
  encoded_.clear();
  detail::encode_ops(buf_.data(), buf_.size(), encoded_);
  const trace::SpillStore::Slot slot =
      spill_.store_.append(encoded_.size(), kMemChunkOverhead);
  std::memcpy(slot.bytes, encoded_.data(), encoded_.size());
  spill_.chunks_.push_back({slot.at,
                            static_cast<std::uint32_t>(encoded_.size()),
                            static_cast<std::uint32_t>(buf_.size())});
  buf_.clear();
}

ReplayOpSpill ReplayOpSink::finish() {
  CHECK(!finished_, "ReplayOpSink::finish called twice");
  finished_ = true;
  flush_buffer();
  spill_.store_.finish();
  // Offer the decoded expansion to the same admission pool while it is
  // still alive: sweeps re-decode the chunks once per pass, so when the
  // budget can also hold the flat ReplayOp array, ReplayLog decodes once
  // at construction instead.  Charged here, like every other reservation,
  // so the study's RSS bound (streaming residue + budget) still holds by
  // construction.  A null budget means all-disk — never resident.
  if (spill_.disk_chunks() == 0 && budget_ != nullptr &&
      budget_->try_reserve(static_cast<std::int64_t>(
          spill_.count_ * sizeof(detail::ReplayOp)))) {
    spill_.decode_resident_ = true;
  }
  return std::move(spill_);
}

}  // namespace charisma::cache
