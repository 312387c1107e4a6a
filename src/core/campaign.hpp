// Campaign runner — fans a batch of independent studies over a thread pool.
//
// A "campaign" is the unit of experimentation above a single study: seed
// replications for confidence intervals, scale sweeps, or configuration
// variants.  Every study owns a private sim::Engine (the engine is
// single-threaded by design), so studies parallelize perfectly; the runner
// writes results by input index, which makes the output — including every
// per-study trace digest — independent of the worker-thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/figures.hpp"
#include "cache/simulators.hpp"
#include "core/stream_study.hpp"
#include "util/mutex.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace charisma::core {

/// One study in a campaign: a label for reports plus its full configuration.
struct CampaignStudy {
  std::string label;
  StudyConfig config;
};

/// What a campaign keeps from each study: identity, the determinism anchor
/// (trace digest), volume counters, and the headline paper statistics —
/// each measured from the study's own trace by the analyzers, never echoed
/// from the generator configuration.
struct StudySummary {
  std::string label;
  std::uint64_t seed = 0;
  double scale = 0.0;

  std::uint64_t trace_digest = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t records = 0;
  std::uint64_t total_ops = 0;
  util::MicroSec sim_end = 0;

  // Measured statistics (Figure 1, Figure 4, §4.2, §4.6 of the paper).
  double idle_fraction = 0.0;
  double multiprogrammed_fraction = 0.0;
  double single_node_job_fraction = 0.0;
  double small_read_fraction = 0.0;
  double small_write_fraction = 0.0;
  double temporary_fraction = 0.0;
  double mode0_fraction = 0.0;

  /// Per-figure curves sampled on fixed grids (Figures 4-9, Tables 1-3);
  /// empty when the campaign ran with collect_figures off.  The campaign
  /// folds these into pointwise envelope bands across replications.
  analysis::FigureSet figures;
};

/// Cross-study aggregate of one statistic (normally across seed
/// replications of a fixed configuration).
struct AggregateStat {
  std::string name;
  util::Summary summary;

  /// Half-width of the normal-approximation 95% confidence interval
  /// (1.96 * stddev / sqrt(n)); 0 with fewer than two studies.
  [[nodiscard]] double ci95_half_width() const noexcept;
};

struct CampaignResult {
  /// One entry per input study, in input order regardless of thread count.
  std::vector<StudySummary> studies;
  /// One entry per aggregated statistic, in a fixed (code-defined) order.
  std::vector<AggregateStat> aggregates;
  /// One pointwise envelope per figure (mean / min / max / 95% CI across
  /// the replications), in a fixed order; empty with collect_figures off.
  std::vector<analysis::FigureEnvelope> figure_envelopes;
};

struct CampaignOptions {
  /// Worker threads; 0 picks the hardware concurrency, 1 runs the studies
  /// inline on the calling thread (no pool).
  std::size_t threads = 0;
  /// Sample the per-figure curves for every study and fold envelope bands.
  /// Off saves the analyzer + cache-replay passes for pure-throughput runs.
  bool collect_figures = true;
  /// Invoked after each study finishes, as (finished_count, total), under
  /// the runner's progress lock and from whichever worker finished the
  /// study.  Must be fast and must not call back into the runner.  Progress
  /// is reporting-only: finish order (and therefore the callback order of
  /// indices) varies with the schedule, but the counts are monotonic and
  /// the final pair is always (total, total).
  std::function<void(std::size_t, std::size_t)> on_progress = nullptr;
};

/// Builds a StudySummary from a finished study (exposed for tests and for
/// callers that already ran the study themselves): reads the accumulators'
/// finished state and consumes the output's replay-op spill for the cache
/// figures.  `with_figures` also samples the per-figure curves (Figures
/// 4-9, Tables 1-3).
[[nodiscard]] StudySummary summarize_streamed_study(
    const std::string& label, const StudyConfig& config,
    StreamedStudyOutput&& output, bool with_figures = true);

/// Aggregates the numeric statistics across studies.
[[nodiscard]] std::vector<AggregateStat> aggregate_campaign(
    const std::vector<StudySummary>& studies);

/// The Figure 8 points every figure collection replays: 1-buffer and
/// 50-buffer per-node caches.
[[nodiscard]] std::vector<cache::ComputeCacheConfig> figure_compute_configs();
/// The Figure 9 points: the full buffer grid under LRU, then under FIFO.
[[nodiscard]] std::vector<cache::IoNodeSimConfig> figure_io_configs(
    int io_nodes);

/// One-line description of the grouped sweep plan behind the per-study
/// cache figures (8/9) — how many trace passes the figure collection costs
/// per replication.  Purely structural, so campaign front-ends can print it
/// before running anything.
[[nodiscard]] std::string describe_figure_sweep_plan(int io_nodes = 10);

/// Folds every study's figure curves into per-figure envelopes, in study
/// (= input) order, so the result is thread-count invariant.
[[nodiscard]] std::vector<analysis::FigureEnvelope> fold_figure_envelopes(
    const std::vector<StudySummary>& studies);

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {})
      : options_(options) {}

  /// Runs every study and aggregates.  Deterministic in `studies`: the
  /// same input yields byte-identical summaries (digests included) for any
  /// thread count.
  [[nodiscard]] CampaignResult run(
      const std::vector<CampaignStudy>& studies) const;

  /// Studies finished by the most recent / current run() — the counter the
  /// on_progress callback reports from.  Thread-safe.
  [[nodiscard]] std::size_t completed() const;

 private:
  /// Bumps the completed-study counter and fires on_progress under the
  /// lock, so callback invocations never interleave.
  void note_study_done(std::size_t total) const;

  CampaignOptions options_;
  mutable util::Mutex mutex_;
  mutable std::size_t completed_ CHARISMA_GUARDED_BY(mutex_) = 0;
};

/// `n` copies of `base` differing only in workload seed (base.workload.seed,
/// base.workload.seed + 1, ...), labelled "<prefix>seed<seed>".
[[nodiscard]] std::vector<CampaignStudy> seed_replications(
    const StudyConfig& base, std::size_t n, const std::string& prefix = "");

/// One study per (scale, seed) pair, labelled "scale<scale>_seed<seed>".
[[nodiscard]] std::vector<CampaignStudy> scale_sweep(
    const StudyConfig& base, const std::vector<double>& scales,
    const std::vector<std::uint64_t>& seeds);

}  // namespace charisma::core
