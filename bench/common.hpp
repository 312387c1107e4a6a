// Shared scaffolding for the per-figure/table bench binaries.
//
// Every binary:
//   1. runs the CHARISMA study once at --scale (default 0.2, --seed 42),
//   2. prints the paper-vs-measured reproduction rows for its experiment,
//   3. runs google-benchmark timings of the underlying kernel.
//
// Absolute counts scale with --scale; all percentages/shapes are
// scale-invariant, which is what the comparisons check.  --threads sizes
// the shared worker pool used for cache-parameter sweeps (0 = hardware
// concurrency); every reported number is identical for every thread count.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "analysis/analyzers.hpp"
#include "analysis/paper.hpp"
#include "cache/simulators.hpp"
#include "core/stream_study.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace charisma::bench {

/// The study shared by one binary's reproduction output and benchmarks.
class Context {
 public:
  static Context& instance();

  /// Must be called from main() before use.  May be called again: each call
  /// discards any study built under the previous configuration, so a
  /// configure() is never silently ignored.
  void configure(double scale, std::uint64_t seed, std::size_t threads = 0);

  /// The streamed study: counters, the accumulators' results and the
  /// replay-op spill, never the records.
  [[nodiscard]] const core::StreamedStudyOutput& study();
  /// The study's sessions, built by its merge.
  [[nodiscard]] const analysis::SessionStore& store();
  /// The study's finished trace, from the same run; a bench that needs the
  /// records merges it into its own trace::RecordSink.  Not after sweeps().
  [[nodiscard]] const trace::SpilledTrace& trace();
  /// Worker pool sized by --threads; shared by the sweeps.
  [[nodiscard]] util::ThreadPool& pool();
  /// Sweep runner over the configured study's replay ops, built on first
  /// use; its log() feeds the single-simulator benchmarks.  Building it
  /// drops the trace: the benches that sweep never merge the trace, so
  /// its memory tier need not stay resident through the sweeps.
  [[nodiscard]] cache::SweepRunner& sweeps();
  [[nodiscard]] double scale() const noexcept { return scale_; }

 private:
  [[nodiscard]] core::StudyConfig config() const;
  /// Runs the study once (core::stream_study), keeping its output and trace.
  void build();

  double scale_ = 0.2;
  std::uint64_t seed_ = 42;
  std::size_t threads_ = 0;
  bool configured_ = false;
  std::optional<core::StreamedStudyOutput> study_;
  std::optional<trace::SpilledTrace> trace_;
  std::optional<util::ThreadPool> pool_;
  std::optional<cache::SweepRunner> sweeps_;
};

/// A two-column paper-vs-measured comparison table builder.
class Comparison {
 public:
  explicit Comparison(std::string title);
  Comparison& row(const std::string& metric, const std::string& paper,
                  const std::string& measured);
  Comparison& row(const std::string& metric, double paper, double measured,
                  int precision = 1);
  Comparison& percent_row(const std::string& metric, double paper_fraction,
                          double measured_fraction);
  void print() const;

 private:
  std::string title_;
  util::Table table_;
};

/// Standard main body: parses --scale/--seed/--threads, calls `reproduce`,
/// then runs the registered benchmarks with the remaining argv.  A value
/// that is not a number, a --scale <= 0 or a negative --threads prints
/// usage and returns 2 before the study runs.
int bench_main(int argc, char** argv, const char* experiment,
               void (*reproduce)());

}  // namespace charisma::bench

#define CHARISMA_BENCH_MAIN(experiment, reproduce_fn)                \
  int main(int argc, char** argv) {                                  \
    return charisma::bench::bench_main(argc, argv, experiment,       \
                                       reproduce_fn);                \
  }
