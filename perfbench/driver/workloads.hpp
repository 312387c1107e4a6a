// The benchmark's four workloads, as the library's public entry points run
// them.  README.md says why each one is there and which layer it isolates.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzers.hpp"
#include "analysis/session.hpp"
#include "cache/simulators.hpp"
#include "core/campaign.hpp"
#include "core/study.hpp"
#include "tracer.hpp"

namespace perfbench {

using namespace charisma;

enum class Workload : std::uint8_t {
  kNasStudy,         ///< synthetic NAS study + analyzers + fidelity + sweep
  kNasReplay,        ///< the same workload replayed from a chwl log
  kCheckpointSweep,  ///< Daly checkpoint writer + the sweep on one thread
  kNasCampaign,      ///< four seeds through CampaignRunner + export
};

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);

inline constexpr double kNasScale = 0.2;
inline constexpr double kCampaignScale = 0.1;
inline constexpr std::size_t kCampaignStudies = 4;
/// One worker: on a shared 4-core host, two concurrent studies (each with
/// its spill writer and merge prefetch threads) made an iteration's wall
/// time spread 2.5x more than one did (README.md, "Host noise").
inline constexpr std::size_t kCampaignWorkers = 1;
inline constexpr std::int64_t kCampaignSpillBudgetMb = 8;
/// nas-study's sweep pool; every other workload sweeps on its own thread.
inline constexpr std::size_t kNasStudyPoolThreads = 4;

[[nodiscard]] std::size_t pool_threads(Workload w);

/// One study's configuration (not nas-campaign).  `log` is the chwl input
/// of nas-replay and ignored otherwise.
[[nodiscard]] core::StudyConfig study_config(Workload w, std::uint64_t seed,
                                             const std::string& log);
/// nas-campaign's studies: seeds seed .. seed+3 at kCampaignScale, each
/// with a kCampaignSpillBudgetMb memory tier.
[[nodiscard]] std::vector<core::CampaignStudy> campaign_studies(
    std::uint64_t seed);
[[nodiscard]] core::CampaignOptions campaign_options();
/// The studies one iteration of `w` runs: one, or nas-campaign's four.
[[nodiscard]] std::vector<core::StudyConfig> iteration_configs(
    Workload w, std::uint64_t seed, const std::string& log);

// --- The 28-point cache sweep (fig8 / fig9 / §4.8), as perf_study runs it.

[[nodiscard]] std::vector<cache::ComputeCacheConfig> fig8_configs();

struct IoSubset {
  const char* name;  ///< span name: cache.fig9_lru, ...
  std::vector<cache::IoNodeSimConfig> configs;
};
/// fig9 LRU and FIFO buffer grids, the fig9 I/O-node topology spread, and
/// the §4.8 combined-cache pair.
[[nodiscard]] std::vector<IoSubset> io_subsets();

struct SweepResults {
  std::vector<cache::ComputeCacheResult> compute;
  std::vector<cache::IoNodeSimResult> io;
};
[[nodiscard]] SweepResults run_sweep(const cache::SweepRunner& runner);

// --- Outputs a timed and a traced run must agree on.

struct Identity {
  std::vector<std::uint64_t> digests;
  std::uint64_t records = 0;
  std::uint64_t events = 0;
  std::optional<std::uint64_t> sweep;     ///< fingerprint of sweep/figures
  std::optional<std::uint64_t> analysis;  ///< fingerprint of analyzer results
  int fidelity_bands = 0;
  int fidelity_outside = 0;

  [[nodiscard]] std::string json() const;
};

[[nodiscard]] std::uint64_t fingerprint(const SweepResults& results);
[[nodiscard]] std::uint64_t fingerprint(
    const std::vector<core::StudySummary>& studies);

/// Every §4 analyzer over the study's sessions; returns their fingerprint.
[[nodiscard]] std::uint64_t run_analyzers(
    const analysis::SessionStore& store, std::int64_t block_size);

struct Fidelity {
  int bands = 0;
  int outside = 0;
};
/// The paper-fidelity bands; the two fig8 bands need the one-buffer
/// compute-cache result and are skipped without it.
[[nodiscard]] Fidelity check_fidelity(
    const analysis::SessionStore& store,
    const analysis::RequestSizeResult& requests, std::int64_t block_size,
    const cache::ComputeCacheResult* fig8_one_buffer);

/// Process peak RSS so far, MiB.
[[nodiscard]] double peak_rss_mb();

// --- Driver modes (main.cpp prints what these return).

struct WorkloadSize {
  std::uint64_t ops = 0;                ///< every op of every job
  std::uint64_t traced_data_ops = 0;    ///< reads and writes of traced jobs
  std::uint64_t traced_data_bytes = 0;  ///< the bytes those move
};
/// The size of the workload each seed generates (all four studies for
/// nas-campaign), counted without simulating it, one seed per hardware
/// thread.  The simulation and nas-replay's chwl log follow `ops`; the
/// trace, and with it peak RSS, follows `traced_data_ops`; the cache
/// sweep's block accesses follow `traced_data_bytes`.
[[nodiscard]] std::vector<WorkloadSize> workload_sizes(
    Workload w, const std::vector<std::uint64_t>& seeds);
/// nas-replay's input: the synthetic workload for `seed`, written to `log`.
[[nodiscard]] std::string export_log(std::uint64_t seed,
                                     const std::string& log);
/// Digests the output checks compare against: the synthetic study of
/// `seed` for nas-replay, each campaign study run alone for nas-campaign.
[[nodiscard]] std::string reference_digests(Workload w, std::uint64_t seed);
/// How long run_timed repeats the set-up phase (at least once) before it
/// runs and times the workload; run.py takes the median repeat as one
/// setup_s sample.
inline constexpr double kSetupSeconds = 0.1;
/// One iteration: the set-up repeats, then the workload, timed inside the
/// process (wall and CPU seconds, peak RSS), and its outputs.
[[nodiscard]] std::string run_timed(Workload w, std::uint64_t seed,
                                    const std::string& log,
                                    const std::string& work_dir);
/// One traced iteration rebuilt from public parts (traced.cpp).
[[nodiscard]] std::string run_traced(Workload w, std::uint64_t seed,
                                     const std::string& log,
                                     const std::string& work_dir);

}  // namespace perfbench
