#include "sim/engine.hpp"

#include <utility>

#include "util/check.hpp"

namespace charisma::sim {

Engine::Engine(QueueKind queue) : queue_(queue) {}

void Engine::schedule_at(MicroSec at, Callback fn) {
  // A stale event would silently dispatch at the wrong time: the queues
  // order by `at`, so a past timestamp jumps everything pending.
  CHECK(at >= now_, "schedule_at(", at, ") is in the past: now()=", now_);
  queue_.push(Event{at, next_seq_++, std::move(fn)});
}

void Engine::schedule_in(MicroSec delay, Callback fn) {
  CHECK(delay >= 0, "schedule_in(", delay, ") with a negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

bool Engine::step() {
  if (queue_.empty()) return false;
  Event* ev = queue_.front();
  // Monotone dispatch: simulated time never moves backwards.
  CHECK(ev->at >= now_, "event at t=", ev->at,
        " dispatched after now()=", now_);
  now_ = ev->at;
  ++dispatched_;
  // Move only the callback out of the slot — the callback may schedule
  // new events, which can reallocate the container the slot lives in.
  Callback fn = std::move(ev->fn);
  queue_.drop_front();
  fn();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(MicroSec deadline) {
  MicroSec at = 0;
  while (queue_.next_time(&at) && at <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace charisma::sim
