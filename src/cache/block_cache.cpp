#include "cache/block_cache.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace charisma::cache {

BlockIndex::BlockIndex(std::size_t capacity) {
  CHECK(capacity < kAbsent, "block index capacity ", capacity,
        " exceeds the slab index range");
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(16, capacity * 2));
  slots_.resize(buckets);
  mask_ = buckets - 1;
}

void BlockIndex::insert(const BlockKey& key, std::uint32_t node) {
  Slot& slot = slots_[probe(key)];
  DCHECK(slot.node == kAbsent, "double-insert of block into the index");
  slot = Slot{key.block, key.file, node};
}

void BlockIndex::erase(const BlockKey& key) {
  const std::size_t slot = probe(key);
  CHECK(slots_[slot].node != kAbsent, "block (file=", key.file,
        ", block=", key.block, ") missing from the index");
  erase_at(slot);
}

void BlockIndex::erase_at(std::size_t slot) {
  DCHECK(slot < slots_.size() && slots_[slot].node != kAbsent,
         "erasing an empty index slot");
  std::size_t gap = slot;
  // Backward-shift deletion: walk the chain after the gap and pull back any
  // entry whose home slot lies cyclically at or before the gap, so lookups
  // never need tombstones.
  std::size_t scan = gap;
  for (;;) {
    slots_[gap].node = kAbsent;
    for (;;) {
      scan = (scan + 1) & mask_;
      if (slots_[scan].node == kAbsent) return;
      const std::size_t h = home(slots_[scan].block, slots_[scan].file);
      const bool movable =
          (scan > gap) ? (h <= gap || h > scan) : (h <= gap && h > scan);
      if (movable) {
        slots_[gap] = slots_[scan];
        gap = scan;
        break;
      }
    }
  }
}

BlockCache::BlockCache(std::size_t capacity, Policy policy)
    : capacity_(capacity), policy_(policy), index_(capacity) {}

bool BlockCache::access(const BlockKey& key, NodeId node) {
  ++accesses_;
  if (capacity_ == 0) return false;
  if (const std::uint32_t idx = index_.find(key); idx != BlockIndex::kAbsent) {
    ++hits_;
    if (policy_ != Policy::kFifo && idx != head_) {
      // LRU and IP-aware promote on hit; FIFO keeps insertion order.
      unlink(idx);
      push_front(idx);
    }
    if (policy_ == Policy::kInterprocessAware) accessors_[idx].insert(node);
    return true;
  }
  std::uint32_t idx;
  if (size_ >= capacity_) {
    idx = evict_one();
    nodes_[idx].key = key;
    if (policy_ == Policy::kInterprocessAware) accessors_[idx].clear();
  } else {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{key, kNil, kNil});
    if (policy_ == Policy::kInterprocessAware) accessors_.emplace_back();
  }
  if (policy_ == Policy::kInterprocessAware) accessors_[idx].insert(node);
  push_front(idx);
  ++size_;
  // Eviction's backward-shift erase may rearrange the probe chain, so the
  // insertion re-probes rather than reusing the lookup's slot.
  index_.insert(key, idx);
  CHECK(size_ <= capacity_, "cache occupancy ", size_, " exceeds capacity ",
        capacity_);
  DCHECK(size_ <= nodes_.size(), "recency slab out of sync with entry count");
  return false;
}

void BlockCache::unlink(std::uint32_t idx) {
  Node& n = nodes_[idx];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
  n.prev = kNil;
  n.next = kNil;
}

void BlockCache::push_front(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) nodes_[head_].prev = idx;
  head_ = idx;
  if (tail_ == kNil) tail_ = idx;
}

std::uint32_t BlockCache::evict_one() {
  DCHECK(tail_ != kNil, "evicting from an empty cache");
  std::uint32_t victim = tail_;
  if (policy_ == Policy::kInterprocessAware) {
    // IP-aware: among the coldest few blocks, evict the one consumed by the
    // most distinct nodes — its interprocess reuse is behind it.
    std::size_t victim_nodes = accessors_[victim].size();
    std::uint32_t it = victim;
    for (std::size_t scanned = 1;
         scanned < kEvictionScan && nodes_[it].prev != kNil; ++scanned) {
      it = nodes_[it].prev;
      const std::size_t n = accessors_[it].size();
      if (n > victim_nodes) {
        victim = it;
        victim_nodes = n;
      }
    }
  }
  index_.erase(nodes_[victim].key);
  unlink(victim);
  --size_;
  return victim;
}

}  // namespace charisma::cache
