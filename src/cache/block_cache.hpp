// Trace-driven block cache with pluggable replacement.
//
// Used by the paper's three cache simulations (compute-node, I/O-node,
// combined).  Policies: LRU and FIFO (the paper's §4.8), plus the
// interprocess-aware policy the paper's §5 calls for ("replacement policies
// other than LRU or FIFO should be developed ... to optimize for
// interprocess locality") — it preferentially evicts blocks that many
// distinct nodes have already consumed, since an interleaved or broadcast
// block is dead once every party has read it.
//
// The cache is allocation-free in steady state: resident blocks live in a
// slab of intrusively linked nodes (slots reused on eviction), indexed by a
// BlockIndex sized once at construction.  The sweep runner replays the whole
// trace through one of these per configuration point, so the per-access
// cost — not asymptotics — is what the fig8/fig9/§4.8 benches actually pay.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cfs/types.hpp"

namespace charisma::cache {

using cfs::FileId;
using cfs::NodeId;

struct BlockKey {
  FileId file = cfs::kNoFile;
  std::int64_t block = 0;
  bool operator==(const BlockKey&) const = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(k.file))
                       << 40) ^
                      static_cast<std::uint64_t>(k.block);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

/// Open-addressing map from a resident block to its slab index — the one
/// index behind BlockCache and SegmentedLruStack.  Sized once for a fixed
/// capacity (twice it, rounded up to a power of two): the load factor never
/// passes 1/2, so probes stay short and the table never rehashes.  Deletion
/// is backward-shift, so lookups never meet tombstones.  A slot packs the
/// key and the slab index into 16 bytes.  The caller keeps at most
/// `capacity` keys mapped, as BlockCache and SegmentedLruStack do by
/// evicting before they insert.
class BlockIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  explicit BlockIndex(std::size_t capacity);

  /// Slab index mapped to `key`, or kAbsent.
  [[nodiscard]] std::uint32_t find(const BlockKey& key) const {
    return slots_[probe(key)].node;
  }
  /// The slot holding `key`, or the empty slot that ends its probe chain;
  /// valid until the index next changes.
  [[nodiscard]] std::size_t slot_of(const BlockKey& key) const {
    return probe(key);
  }
  /// Slab index mapped at `slot` (from slot_of), or kAbsent.
  [[nodiscard]] std::uint32_t node_at(std::size_t slot) const {
    return slots_[slot].node;
  }
  /// Maps `key`, which must be absent, to slab index `node`.
  void insert(const BlockKey& key, std::uint32_t node);
  /// Unmaps `key`, which must be present.
  void erase(const BlockKey& key);
  /// Unmaps the key at `slot`, a still-valid slot_of result that holds one:
  /// erase without a second probe.
  void erase_at(std::size_t slot);

  /// Slots in the table, a power of two.
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return slots_.size();
  }

 private:
  struct Slot {
    std::int64_t block = 0;
    FileId file = cfs::kNoFile;
    std::uint32_t node = kAbsent;
  };
  static_assert(sizeof(Slot) == 16, "index slots must stay 16 bytes");

  [[nodiscard]] std::size_t home(std::int64_t block, FileId file) const {
    return BlockKeyHash{}(BlockKey{file, block}) & mask_;
  }
  /// Linear-probes for `key`: the slot holding it, or the first empty slot
  /// of its probe chain when absent (the insertion point).  Terminates
  /// because the table always has vacant slots (load <= 1/2).
  [[nodiscard]] std::size_t probe(const BlockKey& key) const {
    std::size_t i = home(key.block, key.file);
    while (slots_[i].node != kAbsent &&
           !(slots_[i].block == key.block && slots_[i].file == key.file)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  std::size_t mask_ = 0;  // slots_.size() - 1; slots_ is a power of two
  std::vector<Slot> slots_;
};

enum class Policy : std::uint8_t { kLru, kFifo, kInterprocessAware };

[[nodiscard]] constexpr const char* to_string(Policy p) noexcept {
  switch (p) {
    case Policy::kLru: return "LRU";
    case Policy::kFifo: return "FIFO";
    case Policy::kInterprocessAware: return "IP-aware";
  }
  return "?";
}

class BlockCache {
 public:
  BlockCache(std::size_t capacity, Policy policy);

  /// Touches `key` on behalf of `node`; returns true on hit.  Misses insert
  /// the block (evicting per policy when full).  capacity == 0 never hits.
  bool access(const BlockKey& key, NodeId node);

  [[nodiscard]] bool contains(const BlockKey& key) const {
    return index_.find(key) != BlockIndex::kAbsent;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] double hit_rate() const noexcept {
    return accesses_ ? static_cast<double>(hits_) /
                           static_cast<double>(accesses_)
                     : 0.0;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;  // list terminator

  // Slab node on the intrusive recency list: front (head_) = most recent
  // (LRU) / newest (FIFO); prev points toward the front.
  struct Node {
    BlockKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };
  void unlink(std::uint32_t idx);
  void push_front(std::uint32_t idx);
  /// Removes one block per policy; returns its slab index for reuse.
  std::uint32_t evict_one();

  std::size_t capacity_;
  Policy policy_;
  BlockIndex index_;
  std::vector<Node> nodes_;
  std::vector<std::unordered_set<NodeId>> accessors_;  // IP-aware only
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t accesses_ = 0;

  static constexpr std::size_t kEvictionScan = 8;  // IP-aware candidate set
};

}  // namespace charisma::cache
