// The cache sweeps' op source (ROADMAP item 3).
//
// Cache sweeps are the one trace consumer that needs *multiple* passes, so a
// single push-based sink cannot feed them.  Instead, the streaming pipeline
// spills the pre-filtered replay ops (ReplayOpSink, a RecordSink) during the
// one postprocessing merge, and ReplayLog replays them chunk-by-chunk per
// pass.  A disk-tier chunk is read with pread into the traversal's own
// buffer, so parallel sweep passes share one descriptor safely, and resident
// memory per pass is one fixed-size chunk instead of the op vector.
//
// Ops are stored varint/delta-encoded (3-4 bytes per op instead of the raw
// struct's 40): streams are bursty per (job, file) session and heavily
// sequential within a session, so a tag byte plus zigzag-LEB128 deltas
// captures most ops outright.  Chunks are self-contained (the predictor
// resets per chunk).  The spill is a chunk index plus one trace::SpillStore,
// the trace spill's: each chunk's bare payload reserves from the study's
// shared trace::SpillBudget and lands in the memory tier, or — stickily,
// once the budget refused one — in the store's anonymous temp file.  Sweeps
// re-read the ops once per pass (8x for the figure sweep's plan), so
// compactness pays on every pass.
//
// The read-only-session flag cannot be known while spilling (sessions finish
// only after the last record), so ops are encoded without it, and ReplayLog
// resolves every op's flag once, at construction, with a per-(job, file)
// memoized set lookup.
//
// ReplayLog is the one op source of every cache simulator.  It also wraps a
// plain in-memory op vector, the seam for tests that build ops directly.
//
// Construction also bakes two reuse bits per 4 KB block access (see
// BlockReuse): whether the block occurs earlier in the op stream, and
// whether it occurs again later.  Most accesses of this workload are a
// block's last reference, so the sweep kernels use the bits to skip index
// work no later access could observe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/block_cache.hpp"
#include "trace/spill.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace charisma::cache {

using cfs::FileId;
using cfs::JobId;
using cfs::NodeId;
using SessionKey = std::pair<JobId, FileId>;

namespace detail {

/// One replayable data request, pre-filtered from the trace: only reads and
/// writes with positive byte counts survive, and the read-only-session
/// lookup is resolved once instead of per (config, record).
struct ReplayOp {
  FileId file = cfs::kNoFile;
  JobId job = cfs::kNoJob;
  NodeId node = 0;
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
  bool is_read = false;
  bool read_only_session = false;
};

// Tag-byte bits of the compact op encoding.  Unset "same"/"sequential" bits
// mean the corresponding zigzag-LEB128 delta varint follows, in tag-bit
// order: job+file (session), node, offset (vs. the previous op's end), bytes.
inline constexpr std::uint8_t kTagIsRead = 1u << 0;
inline constexpr std::uint8_t kTagSameSession = 1u << 1;
inline constexpr std::uint8_t kTagSequential = 1u << 2;
inline constexpr std::uint8_t kTagSameBytes = 1u << 3;
inline constexpr std::uint8_t kTagSameNode = 1u << 4;

/// First and last util::kBlockSize file block a request touches.
struct BlockSpan {
  std::int64_t first;
  std::int64_t last;
};
[[nodiscard]] inline BlockSpan span_of(const ReplayOp& op) {
  return {op.offset / util::kBlockSize,
          (op.offset + std::max<std::int64_t>(op.bytes, 1) - 1) /
              util::kBlockSize};
}

/// Appends the compact encoding of ops[0..n) to `out`.  Self-contained: the
/// delta predictor starts from a fixed state, so a chunk decodes without any
/// earlier chunk.  read_only_session is not encoded.
void encode_ops(const ReplayOp* ops, std::size_t n,
                std::vector<std::uint8_t>& out);

/// Decodes exactly `n` ops from data[0..size) into out[0..n); returns the
/// bytes consumed.  Decoded ops carry read_only_session == false.  Throws
/// std::runtime_error on truncated or malformed input.
std::size_t decode_ops(const std::uint8_t* data, std::size_t size,
                       std::size_t n, ReplayOp* out);

}  // namespace detail

// The reuse bits of one util::kBlockSize block access.
/// The block occurs before this access in the op stream.
inline constexpr unsigned kReuseEarlier = 1u;
/// The block occurs again after this access in the op stream.
inline constexpr unsigned kReuseLater = 2u;
/// What a caller without bits must assume: look the block up, keep it
/// indexed.  A kernel fed only this behaves exactly as one without bits.
inline constexpr unsigned kReuseUnknown = kReuseEarlier | kReuseLater;

/// The reuse bits of one op's block accesses, in block order.  Every sweep
/// configuration replays a subsequence of the log's op stream (a kernel
/// skips ops, a §4.8 front cache filters them), so a clear bit holds for
/// every cache: with kReuseEarlier clear the block cannot be resident
/// anywhere, and with kReuseLater clear no cache looks it up again.
class BlockReuse {
 public:
  /// No bits: every access reads kReuseUnknown.
  BlockReuse() = default;
  BlockReuse(const std::uint64_t* words, std::uint64_t first_access)
      : words_(words), first_(first_access) {}

  /// Bits of the op's i-th block access (block span_of(op).first + i).
  [[nodiscard]] unsigned at(std::size_t i) const noexcept {
    if (words_ == nullptr) return kReuseUnknown;
    // Two bits per access, never straddling a word.
    const std::uint64_t bit = (first_ + i) * 2;
    return static_cast<unsigned>(words_[bit >> 6] >> (bit & 63)) & 3u;
  }

 private:
  const std::uint64_t* words_ = nullptr;
  std::uint64_t first_ = 0;
};

/// One encoded chunk's index entry.
struct ReplayOpChunk {
  trace::SpillLocation where;  ///< its detail::encode_ops payload
  std::uint32_t size = 0;      ///< payload bytes
  std::uint32_t count = 0;     ///< ops in this chunk (≤ kChunkOps)
};

/// A finished op spill: the chunk index plus the store holding the encoded
/// chunks — a memory-tier prefix of the stream, the rest as bare payloads
/// in an anonymous temp file (deleted with this object).  Op flags are
/// unresolved.
class ReplayOpSpill {
 public:
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] const std::vector<ReplayOpChunk>& chunks() const noexcept {
    return chunks_;
  }
  /// Chunks the store kept in its memory tier.
  [[nodiscard]] std::uint64_t mem_chunks() const noexcept {
    return store_.stats().mem_blocks;
  }
  /// Chunks the store wrote to its disk tier.
  [[nodiscard]] std::uint64_t disk_chunks() const noexcept {
    return store_.stats().disk_blocks;
  }
  /// Host ms the sink spent blocked in write(2) for disk-tier chunks.
  [[nodiscard]] double write_ms() const noexcept {
    return store_.stats().write_ms;
  }
  [[nodiscard]] std::int64_t disk_bytes() const noexcept {
    return store_.stats().disk_bytes;
  }
  /// Disk-tier bytes read back so far, by every reader (thread-safe).
  [[nodiscard]] std::int64_t disk_bytes_read() const noexcept {
    return store_.disk_bytes_read();
  }
  /// True when the sink's budget also admitted the *decoded* flat op array
  /// (count() × sizeof ReplayOp), reserved at finish() while the pool was
  /// alive.  ReplayLog then decodes once at construction and traversals
  /// skip per-pass chunk decoding; the expansion stays inside the study's
  /// RSS bound because it was charged to the same pool.
  [[nodiscard]] bool decode_resident() const noexcept {
    return decode_resident_;
  }

  /// `chunk`'s encoded payload: resident bytes in place, disk bytes read
  /// into `scratch`.  Safe to call concurrently, each caller with its own
  /// scratch.
  [[nodiscard]] const std::uint8_t* payload(
      const ReplayOpChunk& chunk, std::vector<std::uint8_t>& scratch) const {
    return store_.bytes(chunk.where, chunk.size, scratch);
  }

 private:
  friend class ReplayOpSink;
  std::vector<ReplayOpChunk> chunks_;
  trace::SpillStore store_;
  std::uint64_t count_ = 0;
  bool decode_resident_ = false;
};

struct ReplayOpSinkOptions {
  /// Admission pool for the memory tier, shared with the trace spill writer;
  /// borrowed, must outlive the sink.  Null sends every chunk to disk.
  trace::SpillBudget* budget = nullptr;
  /// Directory for the anonymous overflow file ("" = $TMPDIR, then /tmp).
  std::string dir;
};

/// RecordSink that filters the postprocessed stream down to replayable data
/// requests and spills them as compact encoded chunks.  finish() hands out
/// the spill.
class ReplayOpSink final : public trace::RecordSink {
 public:
  explicit ReplayOpSink(ReplayOpSinkOptions options = {});
  void on_record(const trace::Record& r) override;
  [[nodiscard]] ReplayOpSpill finish();

 private:
  void flush_buffer();

  trace::SpillBudget* budget_;
  ReplayOpSpill spill_;
  std::vector<detail::ReplayOp> buf_;
  std::vector<std::uint8_t> encoded_;  // one chunk's payload in transit
  bool finished_ = false;
};

/// The simulators' one op-source type: either an owned in-memory op vector
/// with its flags already resolved, or an owned op spill decoded
/// chunk-by-chunk.  Spill-mode read-only flags are resolved once, at
/// construction, into a per-op bit array (or into the decoded vector, when
/// the budget admitted it), so traversals pay no session lookups.  The
/// reuse bits are baked the same way, in every mode, by the pass that
/// construction makes anyway.  Traversals are const and decode into
/// private buffers (disk-tier chunks arrive by pread on the spill's one
/// descriptor), so concurrent passes from pool workers are safe over
/// either source.
class ReplayLog {
 public:
  /// Ops streamed to traversal callbacks per chunk, and per encoded spill
  /// chunk; bounds a file-mode traversal's resident memory.
  static constexpr std::size_t kChunkOps = 4096;

  ReplayLog() = default;
  /// In-memory log; `ops` must carry resolved read_only_session flags.
  explicit ReplayLog(std::vector<detail::ReplayOp> ops);
  /// Spill-backed log.  `read_only` is consumed here: one decode pass at
  /// construction resolves every op's read_only_session flag, so the set
  /// need not outlive the log.  When the spill's budget admitted the
  /// decoded array (decode_resident()), that pass lands the flat resolved
  /// ops and traversals run in in-memory mode; otherwise it fills a
  /// 1-bit-per-op flag array and traversals re-decode chunks.
  ReplayLog(ReplayOpSpill spill, const std::set<SessionKey>& read_only);

  [[nodiscard]] std::size_t size() const noexcept {
    return file_mode_ ? static_cast<std::size_t>(spill_.count())
                      : ops_.size();
  }

  /// Disk bytes read back from the overflow file so far — the construction
  /// flag pass plus every traversal (thread-safe; zero for in-memory logs
  /// and all-resident spills).
  [[nodiscard]] std::int64_t spill_bytes_read() const noexcept {
    return spill_.disk_bytes_read();
  }

  /// Calls f(const detail::ReplayOp*, std::size_t) for successive chunks of
  /// at most kChunkOps ops, in stream order.
  template <typename F>
  void for_each_chunk(F&& f) const {
    if (!file_mode_) {
      for (std::size_t base = 0; base < ops_.size(); base += kChunkOps) {
        const std::size_t n = std::min(kChunkOps, ops_.size() - base);
        f(ops_.data() + base, n);
      }
      return;
    }
    std::uint64_t base = 0;
    for_each_decoded_chunk([&](detail::ReplayOp* ops, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t bit = base + i;
        ops[i].read_only_session =
            (read_only_bits_[bit >> 6] >> (bit & 63)) & 1;
      }
      f(static_cast<const detail::ReplayOp*>(ops), n);
      base += n;
    });
  }

  /// Calls f(const detail::ReplayOp&) for every op in stream order.
  template <typename F>
  void for_each(F&& f) const {
    for_each_chunk([&](const detail::ReplayOp* ops, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) f(ops[i]);
    });
  }

  /// True when construction baked the reuse bits (an empty log has none).
  [[nodiscard]] bool has_reuse_bits() const noexcept {
    return !reuse_bits_.empty();
  }

  /// Calls f(const detail::ReplayOp&, BlockReuse) for every op in stream
  /// order.  Without baked bits every access reads kReuseUnknown, so a
  /// kernel behaves exactly as it would without them.
  template <typename F>
  void for_each_with_reuse(F&& f) const {
    const std::uint64_t* words =
        has_reuse_bits() ? reuse_bits_.data() : nullptr;
    std::uint64_t next = 0;  // index of the op's first block access
    // Audited: for_each runs the lambda inline on this thread.
    // NOLINTNEXTLINE(charisma-shared-capture)
    for_each([&](const detail::ReplayOp& op) {
      f(op, BlockReuse(words, next));
      const auto [first, last] = detail::span_of(op);
      next += static_cast<std::uint64_t>(last - first + 1);
    });
  }

 private:
  /// Decodes every chunk, in stream order, into a private buffer and
  /// yields f(detail::ReplayOp*, n), flags unresolved.  Const and
  /// reentrant: each call reads into its own buffers.
  template <typename F>
  void for_each_decoded_chunk(F&& f) const {
    if (spill_.count() == 0) return;
    std::vector<detail::ReplayOp> buf(
        std::min<std::size_t>(kChunkOps,
                              static_cast<std::size_t>(spill_.count())));
    std::vector<std::uint8_t> scratch;
    for (const ReplayOpChunk& chunk : spill_.chunks()) {
      CHECK(chunk.count <= buf.size(), "replay op chunk too large");
      const std::size_t used = detail::decode_ops(
          spill_.payload(chunk, scratch), chunk.size, chunk.count, buf.data());
      CHECK(used == chunk.size, "replay op chunk has trailing bytes");
      f(buf.data(), chunk.count);
    }
  }

  std::vector<detail::ReplayOp> ops_;  // in-memory mode
  ReplayOpSpill spill_;                // spill mode
  /// 1 bit per op (spill mode): the read_only_session flags, baked once.
  std::vector<std::uint64_t> read_only_bits_;
  /// 2 bits per block access (every mode): the BlockReuse bits, baked once.
  std::vector<std::uint64_t> reuse_bits_;
  bool file_mode_ = false;
};

}  // namespace charisma::cache
