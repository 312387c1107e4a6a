// Discrete-event simulation engine.
//
// The machine model (compute nodes, network, disks, the trace collector) is
// written as callbacks scheduled on this engine.  Determinism rules:
//   * time is integer microseconds (util::MicroSec);
//   * ties are broken by schedule order (a monotone sequence number), so a
//    (seed, config) pair always produces the identical event interleaving.
//
// One serial engine dispatches every event, from one queue: a 4-ary min-heap
// of (at, seq) keys (sim/event_queue.hpp).  tests/sim/engine_order_test.cpp
// holds every dispatch log to the schedule log sorted by (at, seq), and pins
// a full study's trace digest.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/inline_callback.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace charisma::sim {

class Engine {
 public:
  using Callback = InlineCallback;

  Engine() = default;

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

  /// Schedules `fn`, any callable a Callback holds, at absolute time `at`
  /// (>= now).  The callback is built in place in the queue.
  template <typename F>
  void schedule_at(MicroSec at, F&& fn) {
    // A stale event would silently dispatch at the wrong time: the queue
    // orders by `at`, so a past timestamp jumps everything pending.
    CHECK(at >= now_, "schedule_at(", at, ") is in the past: now()=", now_);
    queue_.push(at, next_seq_++, std::forward<F>(fn));
  }
  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  void schedule_in(MicroSec delay, F&& fn) {
    CHECK(delay >= 0, "schedule_in(", delay, ") with a negative delay");
    queue_.push(now_ + delay, next_seq_++, std::forward<F>(fn));
  }

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
