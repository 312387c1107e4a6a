#include "common.hpp"

#include <optional>
#include <utility>

#include "util/check.hpp"

namespace charisma::bench {

Context& Context::instance() {
  static Context ctx;
  return ctx;
}

void Context::configure(double scale, std::uint64_t seed,
                        std::size_t threads) {
  // Regression guard: configure() used to only record the parameters, so a
  // second call after the study was built was silently ignored and the
  // caller kept measuring the old (scale, seed).  Now every call tears the
  // built state down so the next accessor rebuilds under the new
  // configuration.
  scale_ = scale;
  seed_ = seed;
  threads_ = threads;
  configured_ = true;
  sweeps_.reset();  // borrows pool_; must go first
  study_.reset();
  trace_.reset();
  pool_.reset();
}

core::StudyConfig Context::config() const {
  core::StudyConfig config;
  config.workload.scale = scale_;
  config.workload.seed = seed_;
  return config;
}

void Context::build() {
  CHECK(configured_, "bench::Context used before configure()");
  std::printf("[charisma] running study at scale %.3f (seed %llu)...\n",
              scale_, static_cast<unsigned long long>(seed_));
  std::fflush(stdout);
  study_.emplace();
  trace_ = core::stream_study(config(), {}, *study_);
  std::printf("[charisma] %llu trace events, %zu file sessions\n\n",
              static_cast<unsigned long long>(study_->records),
              study_->sessions.sessions().size());
}

const core::StreamedStudyOutput& Context::study() {
  if (!study_) build();
  return *study_;
}

const analysis::SessionStore& Context::store() { return study().sessions; }

const trace::SpilledTrace& Context::trace() {
  if (!study_) build();
  CHECK(trace_.has_value(), "bench::Context::trace() after sweeps()");
  return *trace_;
}

util::ThreadPool& Context::pool() {
  CHECK(configured_, "bench::Context used before configure()");
  if (!pool_) pool_.emplace(threads_);
  return *pool_;
}

cache::SweepRunner& Context::sweeps() {
  if (!sweeps_) {
    if (!study_) build();
    trace_.reset();
    sweeps_.emplace(std::move(study_->replay_ops),
                    study_->sessions.read_only_sessions(), pool());
  }
  return *sweeps_;
}

Comparison::Comparison(std::string title)
    : title_(std::move(title)),
      table_({"metric", "paper (1994)", "this reproduction"}) {}

Comparison& Comparison::row(const std::string& metric,
                            const std::string& paper,
                            const std::string& measured) {
  table_.add_row({metric, paper, measured});
  return *this;
}

Comparison& Comparison::row(const std::string& metric, double paper,
                            double measured, int precision) {
  return row(metric, util::fmt(paper, precision),
             util::fmt(measured, precision));
}

Comparison& Comparison::percent_row(const std::string& metric,
                                    double paper_fraction,
                                    double measured_fraction) {
  return row(metric, util::fmt(paper_fraction * 100.0) + "%",
             util::fmt(measured_fraction * 100.0) + "%");
}

void Comparison::print() const {
  std::printf("=== %s ===\n%s\n", title_.c_str(), table_.render().c_str());
  std::fflush(stdout);
}

int bench_main(int argc, char** argv, const char* experiment,
               void (*reproduce)()) {
  util::Flags flags(argc, argv, {"scale", "seed", "threads"});
  const std::optional<double> scale = flags.try_get_double("scale", 0.2);
  const std::optional<std::int64_t> seed = flags.try_get_int("seed", 42);
  const std::optional<std::int64_t> threads = flags.try_get_int("threads", 0);
  if (!scale || *scale <= 0.0 || !seed || !threads || *threads < 0) {
    std::fprintf(stderr,
                 "usage: %s [--scale=0.2] [--seed=42] [--threads=N>=0] "
                 "[--benchmark_*...]\n",
                 argc > 0 ? argv[0] : "bench");
    return 2;
  }
  Context::instance().configure(*scale, static_cast<std::uint64_t>(*seed),
                                static_cast<std::size_t>(*threads));
  std::printf("==========================================================\n");
  std::printf("CHARISMA reproduction: %s\n", experiment);
  std::printf("==========================================================\n");
  reproduce();

  int bench_argc = flags.remaining_argc();
  benchmark::Initialize(&bench_argc, flags.remaining().data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace charisma::bench
