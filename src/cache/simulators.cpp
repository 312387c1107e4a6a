#include "cache/simulators.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "cache/stack_sim.hpp"
#include "util/check.hpp"

namespace charisma::cache {

namespace detail {
namespace {

// ---- Config grouping -------------------------------------------------------

/// Configs sharing a key replay the identical filtered stream through the
/// identical cache topology — only the buffer count differs — so one pass
/// can cover the whole group.
struct IoGroupKey {
  int io_nodes = 0;
  std::size_t front = 0;
  Policy policy = Policy::kLru;
  bool operator==(const IoGroupKey&) const = default;
};

struct SweepGrouping {
  std::vector<std::size_t> members;     // config indices, input order
  std::vector<std::size_t> capacities;  // distinct buffer counts, ascending
  std::vector<std::size_t> member_point;  // member -> index into capacities
  Policy policy = Policy::kLru;

  /// The one place that decides which pass runs a group; run_io switches on
  /// it and the plan prints it.  Every LRU shape with a nonzero capacity
  /// runs on the stack, a single capacity included: the stack reads the
  /// log's reuse bits, the reference BlockCache replay does not.  Anything
  /// neither the stack nor the stamp pass covers is replayed, one distinct
  /// capacity per pass.
  [[nodiscard]] SweepGroup::Kind kind() const noexcept {
    if (policy == Policy::kLru && capacities.back() != 0) {
      return SweepGroup::Kind::kStack;
    }
    if (policy == Policy::kFifo && capacities.size() > 1 &&
        capacities.size() <= kMaxStampCapacities) {
      return SweepGroup::Kind::kStamp;
    }
    return SweepGroup::Kind::kReplay;
  }
};

/// Resolves each group's distinct capacities (sorted ascending), maps every
/// member config to its point, and returns the passes: a replay group
/// becomes one single-capacity group per distinct capacity, so each
/// replayed point is its own pool task.
std::vector<SweepGrouping> finish_grouping(
    std::vector<SweepGrouping> groups,
    const std::vector<std::vector<std::size_t>>& raw_caps) {
  std::vector<SweepGrouping> passes;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SweepGrouping& group = groups[g];
    group.capacities = raw_caps[g];
    std::sort(group.capacities.begin(), group.capacities.end());
    group.capacities.erase(
        std::unique(group.capacities.begin(), group.capacities.end()),
        group.capacities.end());
    group.member_point.reserve(group.members.size());
    for (const std::size_t cap : raw_caps[g]) {
      group.member_point.push_back(static_cast<std::size_t>(
          std::lower_bound(group.capacities.begin(), group.capacities.end(),
                           cap) -
          group.capacities.begin()));
    }
    if (group.kind() != SweepGroup::Kind::kReplay) {
      passes.push_back(std::move(group));
      continue;
    }
    for (std::size_t c = 0; c < group.capacities.size(); ++c) {
      SweepGrouping& point = passes.emplace_back();
      point.policy = group.policy;
      point.capacities = {group.capacities[c]};
      for (std::size_t m = 0; m < group.members.size(); ++m) {
        if (group.member_point[m] != c) continue;
        point.members.push_back(group.members[m]);
        point.member_point.push_back(0);
      }
    }
  }
  return passes;
}

/// Every compute config is one LRU group: Figure 8 is LRU by definition,
/// and the buffer count is all that varies.
std::vector<SweepGrouping> group_compute(
    const std::vector<ComputeCacheConfig>& configs) {
  if (configs.empty()) return {};
  std::vector<SweepGrouping> groups(1);
  std::vector<std::vector<std::size_t>> raw_caps(1);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    groups[0].members.push_back(i);
    raw_caps[0].push_back(configs[i].buffers_per_node);
  }
  return finish_grouping(std::move(groups), raw_caps);
}

std::vector<SweepGrouping> group_io(
    const std::vector<IoNodeSimConfig>& configs) {
  std::vector<SweepGrouping> groups;
  std::vector<IoGroupKey> keys;
  std::vector<std::vector<std::size_t>> raw_caps;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const IoNodeSimConfig& c = configs[i];
    const IoGroupKey key{c.io_nodes, c.compute_buffers_per_node, c.policy};
    std::size_t g = 0;
    while (g < groups.size() && !(keys[g] == key)) ++g;
    if (g == groups.size()) {
      groups.emplace_back();
      groups.back().policy = c.policy;
      keys.push_back(key);
      raw_caps.emplace_back();
    }
    groups[g].members.push_back(i);
    raw_caps[g].push_back(c.total_buffers /
                          static_cast<std::size_t>(c.io_nodes));
  }
  return finish_grouping(std::move(groups), raw_caps);
}

SweepPlan plan_of(const std::vector<SweepGrouping>& groups) {
  SweepPlan plan;
  plan.groups.reserve(groups.size());
  for (const SweepGrouping& g : groups) {
    plan.groups.push_back(
        {g.kind(), g.policy, g.members.size(), g.capacities.size()});
  }
  return plan;
}

}  // namespace
}  // namespace detail

ComputeCacheResult simulate_compute_cache(const ReplayLog& ops,
                                          const ComputeCacheConfig& config) {
  ComputeCacheResult out;
  // One cache per (job, node): node reuse across jobs must not leak blocks.
  detail::PerNodeCaches caches(config.buffers_per_node);
  struct JobCount {
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
  };
  std::map<JobId, JobCount> per_job;

  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  ops.for_each([&](const detail::ReplayOp& op) {
    if (!op.is_read || !op.read_only_session) return;
    const bool full_hit = caches.read(op, detail::span_of(op));
    auto& jc = per_job[op.job];
    ++jc.reads;
    if (full_hit) ++jc.hits;
  });

  for (const auto& [job, jc] : per_job) out.add_job(jc.hits, jc.reads);
  out.finalize_jobs();
  return out;
}

IoNodeSimResult simulate_io_cache(const ReplayLog& ops,
                                  const IoNodeSimConfig& config) {
  CHECK(config.io_nodes >= 1, "need at least one I/O node");
  IoNodeSimResult out;

  const std::size_t per_node =
      config.total_buffers / static_cast<std::size_t>(config.io_nodes);
  std::vector<BlockCache> io_caches;
  io_caches.reserve(static_cast<std::size_t>(config.io_nodes));
  for (int i = 0; i < config.io_nodes; ++i) {
    io_caches.emplace_back(per_node, config.policy);
  }
  detail::PerNodeCaches compute(config.compute_buffers_per_node);

  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  ops.for_each([&](const detail::ReplayOp& op) {
    const auto [first, last] = detail::span_of(op);

    if (config.compute_buffers_per_node > 0 && op.is_read &&
        op.read_only_session && compute.read(op, {first, last})) {
      ++out.filtered_by_compute;
      return;  // never reaches the I/O nodes
    }

    // Round-robin striping at one-block granularity (paper §4.8).  The
    // request is "fully satisfied from the buffer" when every block it
    // touches is already cached (Figure 8's definition, applied here to
    // the I/O-node caches).
    ++out.requests;
    bool full_hit = true;
    for (std::int64_t b = first; b <= last; ++b) {
      BlockCache& cache =
          io_caches[static_cast<std::size_t>(b % config.io_nodes)];
      ++out.block_accesses;
      if (cache.access({op.file, b}, op.node)) {
        ++out.block_hits;
      } else {
        full_hit = false;
      }
    }
    if (full_hit) ++out.request_hits;
  });
  out.finalize_rates();
  return out;
}

// ---- Sweep plan ------------------------------------------------------------

std::size_t SweepPlan::configs() const noexcept {
  std::size_t n = 0;
  for (const SweepGroup& g : groups) n += g.configs;
  return n;
}

std::size_t SweepPlan::simulated_points() const noexcept {
  std::size_t n = 0;
  for (const SweepGroup& g : groups) n += g.simulated;
  return n;
}

std::string SweepPlan::describe() const {
  std::ostringstream s;
  s << configs() << " configs in " << passes()
    << (passes() == 1 ? " pass:" : " passes:");
  for (const SweepGroup& g : groups) {
    s << " " << to_string(g.policy) << "/" << to_string(g.kind) << "("
      << g.configs << "->" << g.simulated << ")";
  }
  return s.str();
}

SweepPlan plan_compute_sweep(const std::vector<ComputeCacheConfig>& configs) {
  return detail::plan_of(detail::group_compute(configs));
}

SweepPlan plan_io_sweep(const std::vector<IoNodeSimConfig>& configs) {
  return detail::plan_of(detail::group_io(configs));
}

// ---- SweepRunner -----------------------------------------------------------

SweepRunner::SweepRunner(ReplayOpSpill ops,
                         const std::set<SessionKey>& read_only)
    : log_(std::move(ops), read_only) {}

SweepRunner::SweepRunner(ReplayOpSpill ops,
                         const std::set<SessionKey>& read_only,
                         util::ThreadPool& pool)
    : log_(std::move(ops), read_only), pool_(&pool) {}

void SweepRunner::for_each(
    std::size_t n, const std::function<void(std::size_t)>& body) const {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) body(i);
  } else {
    util::parallel_for(*pool_, n, body);
  }
  const util::MutexLock lock(mutex_);
  passes_executed_ += n;
}

std::size_t SweepRunner::passes_executed() const {
  const util::MutexLock lock(mutex_);
  return passes_executed_;
}

std::vector<ComputeCacheResult> SweepRunner::run_compute(
    const std::vector<ComputeCacheConfig>& configs, SweepMode mode) const {
  std::vector<ComputeCacheResult> results(configs.size());
  if (mode == SweepMode::kPerConfig) {
    // Audited: results[i] is a distinct slot per iteration.
    // NOLINTNEXTLINE(charisma-shared-capture)
    for_each(configs.size(), [&](std::size_t i) {
      results[i] = simulate_compute_cache(log_, configs[i]);
    });
  } else {
    const auto groups = detail::group_compute(configs);
    // Results land in slots keyed by the original config index, so the
    // output order is the input order for any pool thread count.  Audited:
    // each group's members are disjoint, so the slot writes never overlap.
    // NOLINTNEXTLINE(charisma-shared-capture)
    for_each(groups.size(), [&](std::size_t g) {
      const auto& group = groups[g];
      std::vector<ComputeCacheResult> points;
      if (group.kind() == SweepGroup::Kind::kStack) {
        points = detail::stack_compute_group(log_, group.capacities);
      } else {
        points.push_back(simulate_compute_cache(
            log_, configs[group.members.front()]));
      }
      for (std::size_t m = 0; m < group.members.size(); ++m) {
        results[group.members[m]] = points[group.member_point[m]];
      }
    });
  }
  // Per-config conservation, audited in debug builds (SweepConservation
  // holds it, and the laws across configs, in every build).
  for (std::size_t i = 0; i < results.size(); ++i) {
    DCHECK(results[i].hits <= results[i].reads &&
               results[i].reads <= log_.size(),
           "conservation law: compute config ", i, " hits ", results[i].hits,
           " of ", results[i].reads, " reads of ", log_.size(), " ops");
  }
  return results;
}

std::vector<IoNodeSimResult> SweepRunner::run_io(
    const std::vector<IoNodeSimConfig>& configs, SweepMode mode) const {
  std::vector<IoNodeSimResult> results(configs.size());
  if (mode == SweepMode::kPerConfig) {
    // Audited: results[i] is a distinct slot per iteration.
    // NOLINTNEXTLINE(charisma-shared-capture)
    for_each(configs.size(), [&](std::size_t i) {
      results[i] = simulate_io_cache(log_, configs[i]);
    });
  } else {
    const auto groups = detail::group_io(configs);
    // Audited: group members are disjoint config indices (see group_io).
    // NOLINTNEXTLINE(charisma-shared-capture)
    for_each(groups.size(), [&](std::size_t g) {
      const auto& group = groups[g];
      const IoNodeSimConfig& shape = configs[group.members.front()];
      std::vector<IoNodeSimResult> points;
      switch (group.kind()) {
        case SweepGroup::Kind::kStack:
          points = detail::stack_io_group(log_, shape, group.capacities);
          break;
        case SweepGroup::Kind::kStamp:
          points = detail::fifo_io_group(log_, shape, group.capacities);
          break;
        case SweepGroup::Kind::kReplay:
          points.push_back(simulate_io_cache(log_, shape));
          break;
      }
      for (std::size_t m = 0; m < group.members.size(); ++m) {
        results[group.members[m]] = points[group.member_point[m]];
      }
    });
  }
  // Per-config conservation (see run_compute): every op reaches the I/O
  // nodes or a front cache absorbs it, and hits never exceed accesses.
  for (std::size_t i = 0; i < results.size(); ++i) {
    [[maybe_unused]] const IoNodeSimResult& r = results[i];
    DCHECK(r.requests + r.filtered_by_compute == log_.size() &&
               r.request_hits <= r.requests &&
               r.block_hits <= r.block_accesses,
           "conservation law: io config ", i, " ", r.describe(), " over ",
           log_.size(), " ops");
  }
  return results;
}

void ComputeCacheResult::add_job(std::uint64_t job_hits,
                                 std::uint64_t job_reads) {
  hits += job_hits;
  reads += job_reads;
  job_hit_rates.push_back(hit_fraction(job_hits, job_reads));
}

void ComputeCacheResult::finalize_jobs() {
  std::size_t zero = 0;
  std::size_t above_75 = 0;
  for (const double rate : job_hit_rates) {
    if (rate <= 0.0) ++zero;
    if (rate > 0.75) ++above_75;
  }
  if (!job_hit_rates.empty()) {
    const auto n = static_cast<double>(job_hit_rates.size());
    fraction_jobs_zero = static_cast<double>(zero) / n;
    fraction_jobs_above_75 = static_cast<double>(above_75) / n;
  }
  hit_rate_cdf = util::Cdf::from_samples(job_hit_rates);
}

std::string ComputeCacheResult::describe() const {
  std::ostringstream s;
  s << "reads=" << reads << " hits=" << hits << " hit_rate="
    << overall_hit_rate() << " jobs=" << job_hit_rates.size() << " zero="
    << fraction_jobs_zero << " above75=" << fraction_jobs_above_75;
  return s.str();
}

std::string IoNodeSimResult::describe() const {
  std::ostringstream s;
  s << "requests=" << requests << " hits=" << request_hits << " hit_rate="
    << hit_rate << " block_hit_rate=" << block_hit_rate;
  if (filtered_by_compute > 0) {
    s << " filtered=" << filtered_by_compute;
  }
  return s.str();
}

}  // namespace charisma::cache
