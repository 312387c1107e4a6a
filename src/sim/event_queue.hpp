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
// moves keys only, and a callback moves into the slab on push and again only
// on slab growth and on pop.  A study keeps a few hundred to a few thousand
// events pending, so the heap fits in L2; four children per node halve a
// binary heap's depth, and a sibling group's four keys are 96 contiguous
// bytes.  See docs/performance.md for the measurements behind kArity.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_callback.hpp"
#include "util/units.hpp"

namespace charisma::sim {

using util::MicroSec;

class EventQueue {
 public:
  /// Queues `fn` at time `at`; `seq` must be unique within the queue's life
  /// and must grow in schedule order.
  void push(MicroSec at, std::uint64_t seq, InlineCallback&& fn);
  /// Time of the (at, seq)-least event; the queue must be non-empty.
  [[nodiscard]] MicroSec earliest() const;
  /// Removes the (at, seq)-least event and returns its callback; the queue
  /// must be non-empty.
  [[nodiscard]] InlineCallback pop();

  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

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

  std::vector<Key> heap_;  // heap_[0] is the least; children of i: 4i+1..4i+4
  std::vector<InlineCallback> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace charisma::sim
