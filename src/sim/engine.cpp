#include "sim/engine.hpp"

#include <utility>

#include "util/check.hpp"

namespace charisma::sim {

bool Engine::step() {
  if (queue_.empty()) return false;
  const MicroSec at = queue_.earliest();
  // Monotone dispatch: simulated time never moves backwards.
  CHECK(at >= now_, "event at t=", at, " dispatched after now()=", now_);
  now_ = at;
  ++dispatched_;
  // Pop before invoking: the callback may schedule new events, and the
  // first one it schedules fills the root the pop left vacant.
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
