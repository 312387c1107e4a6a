// Single-pass multi-capacity cache sweeps.
//
// LRU has the inclusion property (Mattson et al., "Evaluation techniques
// for storage hierarchies", 1970): at every instant a C-buffer LRU cache
// holds exactly the C most-recently-used blocks, so the caches of every
// capacity are nested and one pass can answer all buffer counts at once.
// An access hits a C-buffer cache exactly when the block's position in the
// full LRU stack is < C — so the only question per access is *which band*
// between consecutive swept capacities the position falls in.
//
// SegmentedLruStack answers that band in O(1) without ever computing the
// exact position: the LRU list is partitioned into segments at the swept
// capacities by sentinel nodes, every resident block carries its segment
// index, and an access repairs the boundaries with at most one constant-
// time sentinel swap per segment (positions only ever shift by one).
// Blocks pushed past the largest capacity are evicted outright — beyond it
// they are indistinguishable from cold — which keeps the structure exactly
// as big as the largest simulated cache.  Hits in the top segment (the
// common case: most reuse is recent) move to the front with no boundary
// repair at all, making the per-access cost comparable to a single
// BlockCache access instead of one per swept capacity.
//
// FIFO has no inclusion property (a bigger FIFO cache is not a superset of
// a smaller one), so each capacity's cache must be stepped individually —
// but FIFO never reorders on a hit, so an inserted block survives exactly
// `capacity` further insertions into its (capacity, node) queue.  That
// makes eviction implicit: fifo_io_group stamps every insertion with the
// queue's running sequence number and keeps one shared hash entry per
// block holding its stamps for all capacities, so presence is a stamp
// comparison, evictions write nothing, and one probe per block access
// covers every config instead of one full hash-map per config per pass.
// The IP-aware policy (stateful eviction scans) has neither shortcut: the
// sweep replays each of its points with the per-config simulate_io_cache.
//
// Both passes read the replay log's reuse bits (BlockReuse): an access
// whose block occurs nowhere earlier in the op stream cannot be resident,
// so it skips the lookup; after an access whose block occurs nowhere later,
// nothing looks the block up again, so its index entry (or its stamps) can
// go.  The stack keeps the block's recency node until it is evicted as
// usual, so occupancy and eviction order are exactly those of the unhinted
// stack; a FIFO block with neither bit only advances the queue counters.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/simulators.hpp"

namespace charisma::cache {

/// One LRU stack standing in for LRU caches of several capacities at once.
/// Constructed with the sorted distinct capacities; each access reports the
/// index of the smallest capacity that would have hit (its "bucket"), or
/// kMiss (== capacities.size()) when even the largest missed.
class SegmentedLruStack {
 public:
  explicit SegmentedLruStack(const std::vector<std::size_t>& capacities);

  /// Bucket the access would land in, without touching the stack — the
  /// compute-node simulation's contains-before-access semantics.  `reuse`
  /// is the access's BlockReuse bits.
  [[nodiscard]] std::size_t peek(const BlockKey& key,
                                 unsigned reuse = kReuseUnknown) const {
    if ((reuse & kReuseEarlier) == 0) return miss_bucket();
    const std::uint32_t idx = index_.find(key);
    if (idx == BlockIndex::kAbsent) return miss_bucket();
    return nodes_[idx].seg + zero_offset_;
  }
  /// peek + a move (or insertion) of the block to the top of the stack,
  /// with a single probe — the I/O-node simulation's access-as-you-go
  /// semantics.  Without kReuseLater the block leaves the index (its node
  /// stays on the recency list until evicted as usual).
  std::size_t access(const BlockKey& key, unsigned reuse = kReuseUnknown);
  /// access() without the bucket.
  void touch(const BlockKey& key, unsigned reuse = kReuseUnknown) {
    (void)access(key, reuse);
  }

  /// The miss bucket: the number of swept capacities (a zero capacity,
  /// which can never hit, counts here but gets no segment).
  [[nodiscard]] std::size_t miss_bucket() const noexcept {
    return segments_ + zero_offset_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Slab node: real blocks and the per-capacity boundary sentinels share
  /// the recency list.  Sentinel i (slab index i < segments_) sits right
  /// after the last block that capacity capacities[i] would hold.
  struct Node {
    BlockKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t seg = 0;
    bool indexed = false;  ///< mapped in index_ (sentinels never are)
  };
  static_assert(sizeof(Node) == 32, "the flag must sit in Node's padding");

  void unlink(std::uint32_t idx);
  void insert_before(std::uint32_t pos, std::uint32_t idx);
  void push_front(std::uint32_t idx);
  /// Re-front an existing node from segment `seg` (hit path).
  void promote(std::uint32_t idx, std::uint32_t seg);
  /// Inserts a new block at the front, cascading one block across each full
  /// boundary and evicting past the largest capacity; `index` maps it.
  void insert_cold(const BlockKey& key, bool index);

  std::vector<std::size_t> capacities_;  // nonzero, strictly increasing
  std::size_t segments_ = 0;             // == capacities_.size()
  std::size_t zero_offset_ = 0;          // 1 when a zero capacity was swept
  BlockIndex index_;
  std::vector<Node> nodes_;  // [0, segments_) sentinels, rest blocks
  std::uint32_t head_ = kNil;
  std::size_t size_ = 0;  // resident blocks (sentinels excluded)
};

namespace detail {

/// Figure 8 in one pass: exact ComputeCacheResult for every buffer count in
/// `buffer_counts` (sorted ascending, distinct, one nonzero at least),
/// per-(job, node) LRU caches of 4 KB blocks.  Bit-identical to
/// simulate_compute_cache run once per count.
[[nodiscard]] std::vector<ComputeCacheResult> stack_compute_group(
    const ReplayLog& ops, const std::vector<std::size_t>& buffer_counts);

/// Figure 9 / §4.8 in one pass: exact IoNodeSimResult for every per-node
/// buffer count in `per_node_buffers` (sorted ascending, distinct, one
/// nonzero at least; a single count is a one-segment stack).  `shape`
/// supplies the shared topology — io_nodes and the front-cache setting;
/// its policy must be kLru and its total_buffers is ignored.
/// Bit-identical to simulate_io_cache run once per count.
[[nodiscard]] std::vector<IoNodeSimResult> stack_io_group(
    const ReplayLog& ops, const IoNodeSimConfig& shape,
    const std::vector<std::size_t>& per_node_buffers);

/// Most per-node buffer counts one fifo_io_group pass covers (its
/// per-request hit mask is 16 bits wide).
inline constexpr std::size_t kMaxStampCapacities = 16;

/// The FIFO analogue of stack_io_group: one shared-hash pass over the op
/// stream covering every per-node buffer count (at most
/// kMaxStampCapacities of them).  `shape.policy` must be kFifo.
/// Bit-identical to simulate_io_cache run once per count.
[[nodiscard]] std::vector<IoNodeSimResult> fifo_io_group(
    const ReplayLog& ops, const IoNodeSimConfig& shape,
    const std::vector<std::size_t>& per_node_buffers);

}  // namespace detail

}  // namespace charisma::cache
