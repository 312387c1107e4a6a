#include "workload/driver.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace charisma::workload {

using util::MicroSec;

Driver::Driver(ipsc::Machine& machine, cfs::Runtime& runtime,
               trace::Collector& collector, Source& source)
    : machine_(&machine),
      runtime_(&runtime),
      collector_(&collector),
      source_(&source),
      workload_(&source.workload()),
      allocator_(net::Hypercube::dimension_for(machine.compute_nodes())) {
  CHECK((std::int32_t{1} << allocator_.dimension()) ==
            machine.compute_nodes(),
        "driver requires a power-of-two machine");
}

void Driver::prepopulate() {
  // Input files existed before tracing started; create them straight
  // through the metadata layer under a reserved loader job id.
  constexpr cfs::JobId kLoader = -2;
  auto& fs = runtime_->fs();
  for (const auto& in : workload_->inputs) {
    const auto open = fs.open(kLoader, 0, in.path,
                              cfs::kWrite | cfs::kCreate,
                              cfs::IoMode::kIndependent, 0);
    CHECK(open.ok, "prepopulate open failed: ", cfs::to_string(open.error));
    if (in.bytes > 0) {
      const auto r = fs.reserve_write(kLoader, 0, open.file, in.bytes, 0);
      CHECK(r.ok, "prepopulate write failed: ", cfs::to_string(r.error));
    }
    fs.close(kLoader, 0, open.file);
  }
}

void Driver::run() {
  prepopulate();
  auto& engine = machine_->engine();
  for (std::size_t i = 0; i < workload_->jobs.size(); ++i) {
    engine.schedule_at(workload_->jobs[i].arrival,
                       [this, i] { on_arrival(i); });
  }
  engine.run();
  collector_->flush_all();
}

void Driver::on_arrival(std::size_t spec_index) {
  pending_.push_back(spec_index);
  try_start_pending();
}

void Driver::try_start_pending() {
  // FIFO: the head job blocks smaller jobs behind it, as NQS-style queues
  // on the real machine did.  NQS also capped the number of simultaneously
  // running jobs (the paper observed at most 8).
  while (!pending_.empty()) {
    if (running_ >= kMaxRunningJobs) return;
    const JobSpec& spec = workload_->jobs[pending_.front()];
    std::int32_t nodes = std::min(spec.nodes, machine_->compute_nodes());
    if (nodes < spec.nodes) ++clamped_;
    const std::int32_t base = allocator_.allocate(nodes);
    if (base < 0) return;
    const std::size_t spec_index = pending_.front();
    pending_.pop_front();
    allocator_.release(base, nodes);  // re-acquired inside start_job
    start_job(spec_index);
  }
}

void Driver::start_job(std::size_t spec_index) {
  const JobSpec& spec = workload_->jobs[spec_index];
  const std::int32_t nodes = std::min(spec.nodes, machine_->compute_nodes());
  const std::int32_t base = allocator_.allocate(nodes);
  CHECK(base >= 0, "start_job allocation must succeed");

  ++running_;
  runs_.push_back(std::make_unique<JobRun>());
  JobRun* run = runs_.back().get();
  run->spec = &spec;
  run->spec_index = spec_index;
  run->base = base;
  run->paths = source_->start_job(spec_index);
  run->result_index = results_.size();

  JobResult result;
  result.job = spec.job;
  result.archetype = spec.archetype;
  result.nodes = nodes;
  result.traced = spec.traced;
  result.arrival = spec.arrival;
  result.start = machine_->engine().now();
  results_.push_back(result);

  trace::Record start_rec;
  start_rec.kind = trace::EventKind::kJobStart;
  start_rec.job = spec.job;
  start_rec.node = base;
  start_rec.aux = nodes;
  collector_->append_job_event(start_rec);

  run->nodes.resize(static_cast<std::size_t>(nodes));
  for (std::int32_t rank = 0; rank < nodes; ++rank) {
    auto& nr = run->nodes[static_cast<std::size_t>(rank)];
    nr.raw = std::make_unique<cfs::Client>(*runtime_, base + rank);
    nr.client = std::make_unique<trace::InstrumentedClient>(
        *nr.raw, *collector_, spec.traced);
    // SPMD startup skew: ranks come up a few hundred microseconds apart.
    machine_->engine().schedule_in(200 + 50 * rank,
                                   [this, run, rank] { step(run, rank); });
  }
}

Op* Driver::fetch_op(JobRun* run, std::int32_t rank) {
  auto& nr = run->nodes[static_cast<std::size_t>(rank)];
  if (nr.ended) return nullptr;
  if (!nr.has_current) {
    nr.current = source_->next(run->spec_index, rank);
    if (nr.current.kind == OpKind::kEnd) {
      nr.ended = true;
      return nullptr;
    }
    nr.has_current = true;
  }
  return &nr.current;
}

void Driver::step(JobRun* run, std::int32_t rank) {
  auto& nr = run->nodes[static_cast<std::size_t>(rank)];
  auto& engine = machine_->engine();
  Op* fetched = fetch_op(run, rank);
  if (fetched == nullptr) {
    if (++run->done == static_cast<std::int32_t>(run->nodes.size())) {
      finish_job(run);
    }
    return;
  }
  const Op& op = *fetched;
  auto& result = results_[run->result_index];

  // The think time models compute before this operation issues.
  if (op.think > 0) {
    // Consume the think by rescheduling this op with think cleared.
    const MicroSec t = op.think;
    fetched->think = 0;
    engine.schedule_in(t, [this, run, rank] { step(run, rank); });
    return;
  }

  const auto path_of = [&](std::int32_t idx) -> const std::string& {
    return run->paths[static_cast<std::size_t>(idx)];
  };
  const auto fd_of = [&](std::int32_t idx) {
    const auto i = static_cast<std::size_t>(idx);
    return i < nr.fds.size() ? nr.fds[i] : cfs::kBadFd;
  };

  MicroSec next_at = engine.now();
  bool retry = false;
  ++ops_;
  ++result.ops;

  switch (op.kind) {
    case OpKind::kOpen: {
      const auto r = nr.client->open(run->spec->job, path_of(op.path),
                                     op.flags, op.mode);
      if (r.ok) {
        const auto i = static_cast<std::size_t>(op.path);
        if (nr.fds.size() <= i) nr.fds.resize(i + 1, cfs::kBadFd);
        nr.fds[i] = r.fd;
        next_at = r.completed_at;
      } else {
        ++result.io_errors;
      }
      break;
    }
    case OpKind::kRead:
    case OpKind::kWrite: {
      const cfs::Fd fd = fd_of(op.path);
      const auto r = op.kind == OpKind::kRead
                         ? nr.client->read(fd, op.bytes)
                         : nr.client->write(fd, op.bytes);
      if (r.ok) {
        next_at = r.completed_at;
        result.bytes += r.bytes;
      } else if (r.error == cfs::IoError::kOutOfTurn) {
        retry = true;
      } else {
        ++result.io_errors;
      }
      break;
    }
    case OpKind::kSeek: {
      if (!nr.client->seek(fd_of(op.path), op.offset, op.whence)) {
        ++result.io_errors;
      }
      break;
    }
    case OpKind::kClose: {
      const cfs::Fd fd = fd_of(op.path);
      if (fd != cfs::kBadFd) {
        nr.client->close(fd);
        nr.fds[static_cast<std::size_t>(op.path)] = cfs::kBadFd;
      } else {
        ++result.io_errors;
      }
      break;
    }
    case OpKind::kUnlink: {
      if (!nr.client->unlink(run->spec->job, path_of(op.path))) {
        ++result.io_errors;
      }
      break;
    }
    case OpKind::kThink:
      break;  // think already consumed above
    case OpKind::kBarrier: {
      const std::size_t idx = nr.barriers_passed++;
      if (run->barriers.size() <= idx) run->barriers.resize(idx + 1);
      Barrier& bar = run->barriers[idx];
      ++bar.arrived;
      if (bar.arrived < static_cast<std::int32_t>(run->nodes.size())) {
        bar.parked.push_back(rank);  // resumed by the last arrival
        return;
      }
      // Last arrival: release everyone (a hypercube barrier costs a few
      // log-P message hops).
      const MicroSec release = 50;
      for (const std::int32_t parked : bar.parked) {
        run->nodes[static_cast<std::size_t>(parked)].has_current = false;
        engine.schedule_in(release,
                           [this, run, parked] { step(run, parked); });
      }
      break;
    }
    case OpKind::kEnd:
      CHECK(false, "kEnd is a source sentinel, never executed");
      break;
  }

  if (retry) {
    ++retries_;
    ++nr.retries;
    --ops_;
    --result.ops;
    CHECK(nr.retries < kMaxRetriesPerNode,
          "mode-2 retry storm: workload script out of order");
    // Poll with exponential backoff: the node ahead of us may be deep in a
    // multi-second compute phase.
    const int shift = static_cast<int>(std::min<std::uint64_t>(
        nr.backoff, 9));
    ++nr.backoff;
    engine.schedule_in((runtime_->fs().params().pointer_handoff + 100)
                           << shift,
                       [this, run, rank] { step(run, rank); });
    return;
  }
  nr.backoff = 0;

  nr.has_current = false;
  const MicroSec delay = std::max<MicroSec>(next_at - engine.now(), 0);
  engine.schedule_in(delay, [this, run, rank] { step(run, rank); });
}

void Driver::finish_job(JobRun* run) {
  auto& result = results_[run->result_index];
  result.end = machine_->engine().now();

  trace::Record end_rec;
  end_rec.kind = trace::EventKind::kJobEnd;
  end_rec.job = run->spec->job;
  end_rec.node = run->base;
  end_rec.aux = static_cast<std::int64_t>(run->nodes.size());
  collector_->append_job_event(end_rec);

  source_->end_job(run->spec_index);
  allocator_.release(run->base, static_cast<std::int32_t>(run->nodes.size()));
  // The shell stays alive in runs_ (step callbacks may hold the pointer),
  // but the per-node clients, scripts, and barrier state are dead weight
  // from here on.  The caller (step) touches nothing of run's after this.
  run->nodes.clear();
  run->nodes.shrink_to_fit();
  run->barriers.clear();
  run->barriers.shrink_to_fit();
  run->paths.clear();
  run->paths.shrink_to_fit();
  --running_;
  try_start_pending();
}

}  // namespace charisma::workload
