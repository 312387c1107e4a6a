// Workload driver: executes a workload on the simulated machine.
//
// Responsibilities:
//   * pre-populate the input files that existed before tracing started;
//   * feed job arrivals into a FIFO queue in front of the subcube allocator;
//   * run each started job's per-node scripts as event-engine callback
//     chains through the (instrumented or plain) CFS client;
//   * emit JOB_START / JOB_END records through the collector's separate
//     job-logging channel, for every job, traced or not (paper §3.1).
//
// Ops come from a workload::Source (any registered method): each rank pulls
// its next op on demand — next(job, rank) until OpKind::kEnd.  A mode-2
// retry re-issues the held op, so total_ops() counts every op the source
// yields exactly once.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cfs/client.hpp"
#include "trace/collector.hpp"
#include "trace/instrumented_client.hpp"
#include "workload/generator.hpp"
#include "workload/scheduler.hpp"
#include "workload/source.hpp"

namespace charisma::workload {

struct JobResult {
  cfs::JobId job = cfs::kNoJob;
  Archetype archetype = Archetype::kSystem;
  std::int32_t nodes = 0;
  bool traced = false;
  util::MicroSec arrival = 0;
  util::MicroSec start = 0;
  util::MicroSec end = 0;
  std::uint64_t ops = 0;
  std::uint64_t io_errors = 0;
  /// Bytes granted to the job's successful reads and writes.
  std::int64_t bytes = 0;
};

class Driver {
 public:
  /// Ops are pulled through the pluggable seam.  `source` (and its
  /// workload()) must outlive the driver.
  Driver(ipsc::Machine& machine, cfs::Runtime& runtime,
         trace::Collector& collector, Source& source);

  /// Runs the whole workload to completion (drives the engine).
  void run();

  [[nodiscard]] const std::vector<JobResult>& results() const noexcept {
    return results_;
  }
  [[nodiscard]] std::uint64_t total_ops() const noexcept { return ops_; }
  [[nodiscard]] std::uint64_t mode_retries() const noexcept {
    return retries_;
  }
  [[nodiscard]] std::uint64_t clamped_jobs() const noexcept {
    return clamped_;
  }

 private:
  struct NodeRun {
    std::unique_ptr<cfs::Client> raw;
    std::unique_ptr<trace::InstrumentedClient> client;
    // The one pulled-but-unconsumed op (think times are consumed by zeroing
    // the held copy, retries re-issue it).
    Op current;
    bool has_current = false;
    bool ended = false;
    std::uint64_t retries = 0;
    std::uint64_t backoff = 0;
    std::size_t barriers_passed = 0;
    // path index -> fd.  Path indexes are small and dense per job, so a
    // flat vector (kBadFd = closed/never opened) replaces a hash lookup on
    // the per-operation path.
    std::vector<cfs::Fd> fds;
  };
  struct Barrier {
    std::int32_t arrived = 0;
    std::vector<std::int32_t> parked;  // ranks waiting
  };
  struct JobRun {
    const JobSpec* spec = nullptr;
    std::size_t spec_index = 0;
    std::vector<std::string> paths;
    std::int32_t base = 0;
    std::int32_t done = 0;
    std::size_t result_index = 0;
    std::vector<NodeRun> nodes;
    std::vector<Barrier> barriers;
  };

  void prepopulate();
  void on_arrival(std::size_t spec_index);
  void try_start_pending();
  void start_job(std::size_t spec_index);
  void step(JobRun* run, std::int32_t rank);
  void finish_job(JobRun* run);
  /// The rank's current op, pulling from the source when none is held;
  /// nullptr once the rank's script is exhausted.  Clearing has_current
  /// consumes the op.
  [[nodiscard]] Op* fetch_op(JobRun* run, std::int32_t rank);

  ipsc::Machine* machine_;
  cfs::Runtime* runtime_;
  trace::Collector* collector_;
  Source* source_;
  const GeneratedWorkload* workload_;
  SubcubeAllocator allocator_;
  std::deque<std::size_t> pending_;  // spec indices waiting for nodes
  std::vector<JobResult> results_;
  /// Owns every started job's run state for the driver's lifetime, so the
  /// engine's step callbacks can capture a raw JobRun* — a shared_ptr per
  /// event costs an atomic refcount round-trip on the hottest path in the
  /// simulator.  finish_job() releases a finished run's bulk (node state,
  /// scripts) and keeps only the empty shell.
  std::vector<std::unique_ptr<JobRun>> runs_;
  std::uint64_t ops_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t clamped_ = 0;
  std::int32_t running_ = 0;

  static constexpr std::uint64_t kMaxRetriesPerNode = 100000;
  /// NQS-style limit on simultaneously running jobs (paper Figure 1 tops
  /// out at 8 concurrent jobs).
  static constexpr std::int32_t kMaxRunningJobs = 8;
};

}  // namespace charisma::workload
