#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace charisma::sim {

void EventQueue::push(MicroSec at, std::uint64_t seq, InlineCallback&& fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    DCHECK(slab_.size() < std::numeric_limits<std::uint32_t>::max(),
           "event slab full");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  }
  // Sift the new key up from a hole at the end: each level moves one
  // parent down instead of swapping.
  const Key key{at, seq, slot};
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

MicroSec EventQueue::earliest() const {
  DCHECK(!heap_.empty(), "earliest() on an empty queue");
  return heap_.front().at;
}

InlineCallback EventQueue::pop() {
  DCHECK(!heap_.empty(), "pop() on an empty queue");
  const std::uint32_t slot = heap_.front().slot;
  // Sift the last key down from the root's hole, pulling the least child up
  // one level at a time.
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = kArity * hole + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + kArity, n);
      std::size_t least = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[least])) least = c;
      }
      if (!before(heap_[least], last)) break;
      heap_[hole] = heap_[least];
      hole = least;
    }
    heap_[hole] = last;
  }
  free_slots_.push_back(slot);
  return std::move(slab_[slot]);
}

}  // namespace charisma::sim
