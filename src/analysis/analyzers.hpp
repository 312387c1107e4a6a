// One analyzer per experiment (DESIGN.md §3).  Every analyzer consumes the
// SessionStore / merged record stream only — never the workload
// configuration — so each figure is a measurement, not an echo of the
// generator.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "util/histogram.hpp"

namespace charisma::analysis {

// ---- Figure 1: concurrent jobs ----------------------------------------
struct JobConcurrencyResult {
  /// time_fraction[k] = fraction of the traced period with exactly k jobs
  /// running; the last bin aggregates >= time_fraction.size()-1.
  std::vector<double> time_fraction;
  double idle_fraction = 0.0;
  double multiprogrammed_fraction = 0.0;  // > 1 job
  int max_concurrent = 0;
  util::MicroSec observed_period = 0;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] JobConcurrencyResult analyze_job_concurrency(
    const SessionStore& store);

// ---- Figure 2: nodes per job -------------------------------------------
struct NodeCountResult {
  std::map<std::int32_t, std::int64_t> jobs_by_nodes;
  std::map<std::int32_t, double> node_seconds_by_nodes;
  std::int64_t total_jobs = 0;
  double single_node_job_fraction = 0.0;
  /// Fraction of consumed node-seconds from jobs of >= 32 nodes.
  double large_job_usage_share = 0.0;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] NodeCountResult analyze_node_counts(const SessionStore& store);

// ---- Figure 3: file sizes at close --------------------------------------
struct FileSizeResult {
  util::Cdf cdf;  // over bytes at close
  std::int64_t files = 0;
  double fraction_between_10k_1m = 0.0;
  std::int64_t median = 0;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] FileSizeResult analyze_file_sizes(const SessionStore& store);

// ---- Figure 4: request sizes --------------------------------------------
struct RequestSizeResult {
  util::Cdf reads_by_count;
  util::Cdf reads_by_bytes;
  util::Cdf writes_by_count;
  util::Cdf writes_by_bytes;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  double small_read_fraction = 0.0;        // requests < 4000 B
  double small_read_data_fraction = 0.0;   // bytes moved by those
  double small_write_fraction = 0.0;
  double small_write_data_fraction = 0.0;

  [[nodiscard]] std::string render() const;
};

/// Figure 4 as a sink on the postprocessing merge: push records, then
/// finish().
class RequestSizeAccumulator final : public trace::RecordSink {
 public:
  void on_record(const Record& r) override;
  /// Computes the CDFs and small-request fractions.  Call once.
  [[nodiscard]] RequestSizeResult finish();

 private:
  RequestSizeResult out_;
  util::Histogram read_count_, read_bytes_, write_count_, write_bytes_;
};

// ---- Figures 5/6: sequentiality ------------------------------------------
struct SequentialityResult {
  struct PerClass {
    std::int64_t files = 0;             // multi-request sessions
    util::Cdf sequential_cdf;           // % sequential per file
    util::Cdf consecutive_cdf;          // % consecutive per file
    double fully_sequential = 0.0;      // fraction of files at 100%
    double fully_consecutive = 0.0;
    double zero_sequential = 0.0;
    double zero_consecutive = 0.0;
  };
  PerClass read_only, write_only, read_write;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] SequentialityResult analyze_sequentiality(
    const SessionStore& store);

// ---- Figure 7: sharing ----------------------------------------------------
struct SharingResult {
  struct PerClass {
    std::int64_t files = 0;  // concurrently opened by > 1 node
    util::Cdf byte_shared_cdf;
    util::Cdf block_shared_cdf;
    double fully_byte_shared = 0.0;
    double no_bytes_shared = 0.0;
    double fully_block_shared = 0.0;
  };
  PerClass read_only, write_only, read_write;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] SharingResult analyze_sharing(const SessionStore& store,
                                            std::int64_t block_size);

// ---- Table 1: files per job -----------------------------------------------
struct FilesPerJobResult {
  std::array<std::int64_t, 5> buckets{};  // 1,2,3,4,5+
  std::int64_t traced_jobs_with_files = 0;
  std::int64_t max_files_one_job = 0;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] FilesPerJobResult analyze_files_per_job(
    const SessionStore& store);

// ---- Table 2: interval regularity ------------------------------------------
struct IntervalResult {
  std::array<std::int64_t, 5> buckets{};  // 0,1,2,3,4+ distinct intervals
  std::int64_t total_files = 0;
  double one_interval_consecutive_share = 0.0;  // of 1-interval files

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] IntervalResult analyze_intervals(const SessionStore& store);

// ---- Table 3: request-size regularity ---------------------------------------
struct RequestRegularityResult {
  std::array<std::int64_t, 5> buckets{};  // 0,1,2,3,4+ distinct sizes
  std::int64_t total_files = 0;
  double one_or_two_sizes_share = 0.0;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] RequestRegularityResult analyze_request_regularity(
    const SessionStore& store);

// ---- §4.2: file population ----------------------------------------------
struct FilePopulationResult {
  std::int64_t sessions = 0;
  std::int64_t read_only = 0;
  std::int64_t write_only = 0;
  std::int64_t read_write = 0;
  std::int64_t untouched = 0;
  std::int64_t temporary = 0;
  double temporary_fraction = 0.0;
  double mean_bytes_read_per_read_file = 0.0;
  double mean_bytes_written_per_write_file = 0.0;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] FilePopulationResult analyze_file_population(
    const SessionStore& store);

// ---- §4.6: I/O mode usage --------------------------------------------------
struct ModeUsageResult {
  std::array<std::int64_t, 4> sessions_by_mode{};
  double mode0_fraction = 0.0;

  [[nodiscard]] std::string render() const;
};
[[nodiscard]] ModeUsageResult analyze_mode_usage(const SessionStore& store);

}  // namespace charisma::analysis
