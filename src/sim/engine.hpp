// Discrete-event simulation engine.
//
// The machine model (compute nodes, network, disks, the trace collector) is
// written as callbacks scheduled on this engine.  Determinism rules:
//   * time is integer microseconds (util::MicroSec);
//   * ties are broken by schedule order (a monotone sequence number), so a
//    (seed, config) pair always produces the identical event interleaving.
//
// One serial engine dispatches every event.  The pending-event set lives in
// the two-level calendar queue (sim/event_queue.hpp); the original binary
// heap remains behind QueueKind only as the oracle the engine differential
// suite compares it against.  Both dispatch in exactly the same (at, seq)
// order; the digest-identity tests enforce it.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/inline_callback.hpp"
#include "util/units.hpp"

namespace charisma::sim {

class Engine {
 public:
  using Callback = InlineCallback;

  explicit Engine(QueueKind queue = kDefaultQueueKind);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] MicroSec now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t dispatched_events() const noexcept {
    return dispatched_;
  }
  [[nodiscard]] QueueKind queue_kind() const noexcept { return queue_.kind(); }

  /// Schedules `fn` at absolute time `at` (>= now).
  void schedule_at(MicroSec at, Callback fn);
  /// Schedules `fn` after `delay` (>= 0) from now.
  void schedule_in(MicroSec delay, Callback fn);

  /// Runs events until the queue is empty.
  void run();
  /// Runs events with time <= `deadline`; afterwards now() == max(deadline,
  /// now()).  Events scheduled beyond the deadline remain queued.
  void run_until(MicroSec deadline);
  /// Dispatches the single earliest event; returns false if none remain.
  bool step();

 private:
  EventQueue queue_;
  MicroSec now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace charisma::sim
