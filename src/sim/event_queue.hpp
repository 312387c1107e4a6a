// The engine's pending-event queue.
//
// Determinism rules (enforced by tests/sim/engine_order_test.cpp):
//   * time is integer microseconds (util::MicroSec);
//   * ties are broken by schedule order (a monotone sequence number), so a
//     (seed, config) pair always produces the identical event interleaving.
//
// `seq` is unique, so (at, seq) is a total order and the queue dispatches in
// exactly that order.  It is a 4-ary min-heap of 24-byte {at, seq, slot}
// keys; the callbacks wait in a free-listed slab the keys index, so a sift
// moves keys only.  A callback is built in its slab slot on push and moves
// again only on slab growth and when pop() hands it to the engine.  A study
// keeps a few hundred to a few thousand events pending, so the heap fits in
// L2; four children per node halve a binary heap's depth, and a sibling
// group's four keys are 96 contiguous bytes.  See docs/performance.md for
// the measurements behind kArity.
//
// Replace-top: pop() leaves the root vacant instead of sifting the last key
// down at once.  The next push fills the vacancy with one sift-down from the
// root.  Almost every engine event schedules exactly one follow-up, so that
// one sift replaces a pop's full-depth sift-down plus a push's sift-up.
// When nothing is pushed, the next earliest() or pop() first moves the last
// key into the vacancy, so the queue stays consistent whatever happens
// between a pop and the next push, a callback that throws included.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/inline_callback.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace charisma::sim {

using util::MicroSec;

class EventQueue {
 public:
  /// Queues `fn` at time `at`; `seq` must be unique within the queue's life
  /// and must grow in schedule order.  A callable is built in place in its
  /// slab slot.
  template <typename F>
  void push(MicroSec at, std::uint64_t seq, F&& fn) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      DCHECK(slab_.size() < std::numeric_limits<std::uint32_t>::max(),
             "event slab full");
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back(std::forward<F>(fn));
    } else {
      slot = free_slots_.back();
      slab_[slot].assign(std::forward<F>(fn));
      free_slots_.pop_back();
    }
    push_key(Key{at, seq, slot});
  }
  /// Time of the (at, seq)-least event; the queue must be non-empty.
  [[nodiscard]] MicroSec earliest() {
    DCHECK(!empty(), "earliest() on an empty queue");
    if (root_vacant_) fill_vacant_root();
    return heap_.front().at;
  }
  /// Removes the (at, seq)-least event and returns its callback, leaving
  /// the root vacant for the next push; the queue must be non-empty.
  [[nodiscard]] InlineCallback pop();

  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() - (root_vacant_ ? 1 : 0);
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  static constexpr std::size_t kArity = 4;

  struct Key {
    MicroSec at;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slab_
  };

  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  /// Adds the key of a callback already in the slab: into a vacant root,
  /// or sifted up from the end.
  void push_key(Key key);
  /// Moves the last key into the vacant root.
  void fill_vacant_root();
  /// Places `key` in the hole at the root, pulling the least child up one
  /// level at a time.
  void sift_down_from_root(Key key);

  // heap_[0] is the least (a stale hole while root_vacant_); children of i
  // are 4i+1..4i+4.
  std::vector<Key> heap_;
  bool root_vacant_ = false;
  std::vector<InlineCallback> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace charisma::sim
