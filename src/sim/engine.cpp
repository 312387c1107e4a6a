#include "sim/engine.hpp"

#include <utility>

#include "util/check.hpp"

namespace charisma::sim {

void Engine::schedule_at(MicroSec at, Callback fn) {
  // A stale event would silently dispatch at the wrong time: the queue
  // orders by `at`, so a past timestamp jumps everything pending.
  CHECK(at >= now_, "schedule_at(", at, ") is in the past: now()=", now_);
  queue_.push(at, next_seq_++, std::move(fn));
}

void Engine::schedule_in(MicroSec delay, Callback fn) {
  CHECK(delay >= 0, "schedule_in(", delay, ") with a negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

bool Engine::step() {
  if (queue_.empty()) return false;
  const MicroSec at = queue_.earliest();
  // Monotone dispatch: simulated time never moves backwards.
  CHECK(at >= now_, "event at t=", at, " dispatched after now()=", now_);
  now_ = at;
  ++dispatched_;
  // Pop before invoking: the callback may schedule new events.
  Callback fn = queue_.pop();
  fn();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(MicroSec deadline) {
  while (!queue_.empty() && queue_.earliest() <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace charisma::sim
