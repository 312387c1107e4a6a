// The paper's trace-driven cache simulations.
//
//  * Compute-node simulation (Figure 8): per-node caches of one-block
//    read-only buffers with LRU replacement; a hit is a read fully
//    satisfied locally (no I/O-node message).  Reported as a CDF of
//    per-job hit rates.
//  * I/O-node simulation (Figure 9): 4 KB buffers split evenly over N I/O
//    nodes, LRU or FIFO (or our IP-aware policy, ablation B); files assumed
//    striped round-robin at one-block granularity.
//  * Combined simulation (§4.8): one-block compute-node buffers in front of
//    the I/O-node caches; measures how much intraprocess locality the
//    front caches strip from the I/O-node stream.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/replay.hpp"
#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace charisma::cache {

using cfs::JobId;

namespace detail {

/// (job, node) -> Cache with a memo of the last lookup: replay streams are
/// long runs of one node's requests, so most lookups hit the memo.  A
/// pair's cache is built from at()'s trailing arguments on its first
/// lookup.  The compute-node caches (BlockCache, or one SegmentedLruStack
/// for every swept buffer count) and the §4.8 front caches of every
/// I/O-node pass read through it.
template <typename Cache>
class PerNodeMap {
 public:
  template <typename... Args>
  Cache& at(JobId job, NodeId node, const Args&... args) {
    if (last_ != nullptr && job == last_job_ && node == last_node_) {
      return *last_;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(job)) << 32) |
        static_cast<std::uint32_t>(node);
    last_job_ = job;
    last_node_ = node;
    last_ = &caches_.try_emplace(key, args...).first->second;
    return *last_;
  }

 private:
  // Keyed by packed (job, node); never iterated, so hash order is safe.
  std::unordered_map<std::uint64_t, Cache> caches_;
  JobId last_job_ = cfs::kNoJob;
  NodeId last_node_ = -1;
  Cache* last_ = nullptr;
};

/// Per-(job, node) read-only LRU caches of `buffers` blocks each: the
/// compute-node caches of Figure 8 and the §4.8 front caches.
class PerNodeCaches {
 public:
  explicit PerNodeCaches(std::size_t buffers) : buffers_(buffers) {}

  /// One read through the op's (job, node) cache: true when every block of
  /// `span` was resident before the request ("fully satisfied from the
  /// local buffer"), then every block is accessed.
  bool read(const ReplayOp& op, BlockSpan span) {
    BlockCache& cache = caches_.at(op.job, op.node, buffers_, Policy::kLru);
    bool full_hit = true;
    for (std::int64_t b = span.first; b <= span.last; ++b) {
      if (!cache.contains({op.file, b})) {
        full_hit = false;
        break;
      }
    }
    for (std::int64_t b = span.first; b <= span.last; ++b) {
      (void)cache.access({op.file, b}, op.node);
    }
    return full_hit;
  }

 private:
  std::size_t buffers_;
  PerNodeMap<BlockCache> caches_;
};

}  // namespace detail

// ---- Figure 8 -------------------------------------------------------------

struct ComputeCacheConfig {
  std::size_t buffers_per_node = 1;
};

/// hits / total as a fraction, 0 when there were no attempts.  The one
/// derivation every cache-simulation result and report line shares, so the
/// per-config and grouped paths cannot drift.
[[nodiscard]] constexpr double hit_fraction(std::uint64_t hits,
                                            std::uint64_t total) noexcept {
  return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

struct ComputeCacheResult {
  std::vector<double> job_hit_rates;  // jobs with >= 1 eligible read
  util::Cdf hit_rate_cdf;
  double fraction_jobs_zero = 0.0;
  double fraction_jobs_above_75 = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t hits = 0;

  [[nodiscard]] double overall_hit_rate() const noexcept {
    return hit_fraction(hits, reads);
  }

  /// Adds one job's eligible reads and full hits: the job's hit rate joins
  /// job_hit_rates and its counts the totals.  Callers add jobs in JobId
  /// order.
  void add_job(std::uint64_t job_hits, std::uint64_t job_reads);
  /// Derives the zero and above-75 % job fractions and the CDF from
  /// job_hit_rates, once every job is added.  The per-config replay and the
  /// stack pass both finish through add_job and this, so their doubles
  /// cannot drift.
  void finalize_jobs();

  /// One-line counter summary (shared by the perf harness's sweep-mode
  /// cross-check lines).
  [[nodiscard]] std::string describe() const;
};

/// One replay of `ops` for one config: the per-config reference the grouped
/// sweeps are checked against.  Only reads of read-only sessions are cached,
/// as the paper did (write caching would need a consistency protocol).
[[nodiscard]] ComputeCacheResult simulate_compute_cache(
    const ReplayLog& ops, const ComputeCacheConfig& config);

// ---- Figure 9 / §4.8 -------------------------------------------------------

struct IoNodeSimConfig {
  int io_nodes = 10;
  std::size_t total_buffers = 4000;  // split evenly over the I/O nodes
  Policy policy = Policy::kLru;
  /// > 0 adds per-compute-node read-only front caches (§4.8).
  std::size_t compute_buffers_per_node = 0;
};

struct IoNodeSimResult {
  /// Requests reaching the I/O nodes; a request is a hit when every block
  /// it touches is already cached (it needs no disk I/O anywhere).
  std::uint64_t requests = 0;
  std::uint64_t request_hits = 0;
  std::uint64_t block_accesses = 0;
  std::uint64_t block_hits = 0;
  std::uint64_t filtered_by_compute = 0;  // requests absorbed up front
  double hit_rate = 0.0;        // request-level (the paper's Figure 9 axis)
  double block_hit_rate = 0.0;  // block-level, for the ablation commentary

  /// Derives hit_rate / block_hit_rate from the counters.  Every simulation
  /// path (per-config replay, stack simulation, stamp pass) finishes
  /// through this one helper so the derived fields cannot drift.
  void finalize_rates() noexcept {
    hit_rate = hit_fraction(request_hits, requests);
    block_hit_rate = hit_fraction(block_hits, block_accesses);
  }

  [[nodiscard]] std::string describe() const;
};

/// One replay of `ops` for one config (the per-config reference).
[[nodiscard]] IoNodeSimResult simulate_io_cache(const ReplayLog& ops,
                                                const IoNodeSimConfig& config);

// ---- Parameter sweeps ------------------------------------------------------

/// How SweepRunner executes a batch of configurations.
enum class SweepMode : std::uint8_t {
  /// Reference: one full trace replay per configuration point.
  kPerConfig,
  /// Group configs by (policy, topology, front-cache setting) and run one
  /// pass per group, each its own pool task: a stack simulation covering
  /// every buffer count for LRU (Mattson; a single-point shape such as the
  /// Figure 9 I/O-node-count spread or the §4.8 front point is a
  /// one-segment stack) and one implicit-eviction stamp pass for 2 to
  /// detail::kMaxStampCapacities FIFO buffer counts.  Every other point (an
  /// IP-aware one, a single FIFO point or more than the stamp pass covers,
  /// a zero-capacity LRU shape) is a plain per-config replay, one pass per
  /// distinct buffer count.  The stack and stamp passes read the replay
  /// log's reuse bits.  Results are bit-identical to kPerConfig (the
  /// differential tests enforce it).
  kGrouped,
};

[[nodiscard]] constexpr const char* to_string(SweepMode m) noexcept {
  switch (m) {
    case SweepMode::kPerConfig: return "per-config";
    case SweepMode::kGrouped: return "grouped";
  }
  return "?";
}

/// One pass of a grouped sweep, for introspection: how many config slots it
/// covers and how many distinct cache points it actually simulates (configs
/// collapsing to the same per-node buffer count are deduplicated).
struct SweepGroup {
  enum class Kind : std::uint8_t {
    kStack,   ///< LRU stack simulation, all buffer counts in one pass
    kStamp,   ///< FIFO implicit-eviction stamps, all buffer counts in one pass
    kReplay,  ///< plain replay of one buffer count
  };
  Kind kind = Kind::kReplay;
  Policy policy = Policy::kLru;
  std::size_t configs = 0;    ///< config slots this pass covers
  std::size_t simulated = 0;  ///< distinct cache points simulated in the pass
};

[[nodiscard]] constexpr const char* to_string(SweepGroup::Kind k) noexcept {
  switch (k) {
    case SweepGroup::Kind::kStack: return "stack";
    case SweepGroup::Kind::kStamp: return "stamp";
    case SweepGroup::Kind::kReplay: return "replay";
  }
  return "?";
}

/// The grouped execution plan for a config batch — the sweep analogue of
/// SweepRunner::replay_ops(): how much work a grouped run actually does.
struct SweepPlan {
  std::vector<SweepGroup> groups;

  [[nodiscard]] std::size_t passes() const noexcept { return groups.size(); }
  [[nodiscard]] std::size_t configs() const noexcept;
  [[nodiscard]] std::size_t simulated_points() const noexcept;
  /// e.g. "25 configs in 7 passes: LRU/stack(11->9) FIFO/stamp(9->9)
  /// LRU/stack(1->1) ...".
  [[nodiscard]] std::string describe() const;
};

/// The plan run_compute / run_io would execute in SweepMode::kGrouped.
/// Purely structural — no trace needed.
[[nodiscard]] SweepPlan plan_compute_sweep(
    const std::vector<ComputeCacheConfig>& configs);
[[nodiscard]] SweepPlan plan_io_sweep(
    const std::vector<IoNodeSimConfig>& configs);

/// Runs cache-simulation sweeps over one study's replay ops.  Results always
/// come back in configuration order, making the output invariant under the
/// pool's thread count — the sweep benches and the perf harness depend on
/// that.
///
/// The runner owns its ReplayLog, built from the op spill a study's merge
/// wrote (ReplayOpSink): replays touch only data requests, and the
/// read-only-session flags are resolved once, at construction.  In the
/// default SweepMode::kGrouped, configurations are further grouped by
/// (policy, topology, front-cache setting) and an LRU or FIFO *group* costs
/// one trace pass — exact LRU stack simulation for every buffer count at
/// once, stamps for FIFO — while every other point is its own replay; the
/// passes (not the points) fan out over the thread pool.
class SweepRunner {
 public:
  /// Serial runner: passes execute inline on the calling thread.  `ops` is
  /// consumed, and `read_only` is read only during construction.
  SweepRunner(ReplayOpSpill ops, const std::set<SessionKey>& read_only);
  /// Pooled runner: independent passes fan out over `pool`, which is
  /// borrowed and must outlive the runner.
  SweepRunner(ReplayOpSpill ops, const std::set<SessionKey>& read_only,
              util::ThreadPool& pool);

  /// Figure 8 points, one result per config, in config order.
  [[nodiscard]] std::vector<ComputeCacheResult> run_compute(
      const std::vector<ComputeCacheConfig>& configs,
      SweepMode mode = SweepMode::kGrouped) const;
  /// Figure 9 / §4.8 points, one result per config, in config order.
  [[nodiscard]] std::vector<IoNodeSimResult> run_io(
      const std::vector<IoNodeSimConfig>& configs,
      SweepMode mode = SweepMode::kGrouped) const;

  [[nodiscard]] std::size_t replay_ops() const noexcept {
    return log_.size();
  }

  /// The runner's op log, for one simulator run over the same ops.
  [[nodiscard]] const ReplayLog& log() const noexcept { return log_; }

  /// Disk bytes sweep passes have read back from the op spill's overflow
  /// file so far (zero for all-resident spills).
  [[nodiscard]] std::int64_t spill_bytes_read() const noexcept {
    return log_.spill_bytes_read();
  }

  /// Total trace passes this runner has executed across every run_compute /
  /// run_io call — the cost ledger the grouped-mode speedup claims rest on
  /// (kGrouped must replay fewer passes than kPerConfig for the same
  /// configs).  Thread-safe: sweeps may run concurrently from pool threads.
  [[nodiscard]] std::size_t passes_executed() const;

 private:
  /// parallel_for over the pool when one was given, else a serial loop.
  /// Bumps the passes_executed() ledger by `n` once every pass finished.
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& body) const;

  ReplayLog log_;
  util::ThreadPool* pool_ = nullptr;
  mutable util::Mutex mutex_;
  mutable std::size_t passes_executed_ CHARISMA_GUARDED_BY(mutex_) = 0;
};

}  // namespace charisma::cache
