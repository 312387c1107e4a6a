#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace charisma::sim {

void EventQueue::push_key(Key key) {
  if (root_vacant_) {
    root_vacant_ = false;
    sift_down_from_root(key);
    return;
  }
  // Sift the new key up from a hole at the end: each level moves one
  // parent down instead of swapping.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void EventQueue::fill_vacant_root() {
  const Key last = heap_.back();
  heap_.pop_back();
  root_vacant_ = false;
  // With only the hole left, `last` was the hole itself.
  if (!heap_.empty()) sift_down_from_root(last);
}

void EventQueue::sift_down_from_root(Key key) {
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = kArity * hole + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[least])) least = c;
    }
    if (!before(heap_[least], key)) break;
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = key;
}

InlineCallback EventQueue::pop() {
  DCHECK(!empty(), "pop() on an empty queue");
  if (root_vacant_) fill_vacant_root();
  const std::uint32_t slot = heap_.front().slot;
  free_slots_.push_back(slot);
  root_vacant_ = true;
  return std::move(slab_[slot]);
}

}  // namespace charisma::sim
