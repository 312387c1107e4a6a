// Host-time stopwatch for I/O-path instrumentation.
//
// The streaming spill/merge paths report how much host wall time they spend
// blocked in write(2)/read(2) (perf_study's spill_write_ms / spill_read_ms /
// sink_ms fields).  That is a measurement of the *host*, never simulation
// input — simulated time comes exclusively from sim::Engine::now().  This
// header is the one audited wall-clock source inside src/; everything else
// that needs host time (bench/, tools/) carries its own audited NOLINT.
#pragma once

#include <chrono>

namespace charisma::util {

// Instrumentation only; see the header comment for the audit rationale.
using HostClock = std::chrono::steady_clock;  // NOLINT(charisma-wallclock)

/// Started at construction; elapsed_ms() reads without stopping.
class Stopwatch {
 public:
  Stopwatch() : start_(HostClock::now()) {}

  [[nodiscard]] double elapsed_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(HostClock::now() -
                                                     start_)
        .count();
  }

 private:
  HostClock::time_point start_;
};

}  // namespace charisma::util
