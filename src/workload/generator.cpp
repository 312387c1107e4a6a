#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace charisma::workload {

using util::kHour;
using util::kKiB;
using util::kMiB;
using util::kMillisecond;
using util::kSecond;
using util::MicroSec;
using util::Rng;

const char* to_string(Archetype a) noexcept {
  switch (a) {
    case Archetype::kBroadcastRead: return "broadcast_read";
    case Archetype::kCfdSolver: return "cfd_solver";
    case Archetype::kSlabRead: return "slab_read";
    case Archetype::kCheckpointWrite: return "checkpoint_write";
    case Archetype::kSingleDump: return "single_dump";
    case Archetype::kRwUpdate: return "rw_update";
    case Archetype::kTempFile: return "temp_file";
    case Archetype::kPostprocess: return "postprocess";
    case Archetype::kQuadTool: return "quad_tool";
    case Archetype::kSharedPointer: return "shared_pointer";
    case Archetype::kStatusCheck: return "status_check";
    case Archetype::kSystem: return "system";
  }
  return "?";
}

bool archetype_from_string(std::string_view name, Archetype* out) noexcept {
  static constexpr Archetype kAll[] = {
      Archetype::kBroadcastRead, Archetype::kCfdSolver,
      Archetype::kSlabRead,      Archetype::kCheckpointWrite,
      Archetype::kSingleDump,    Archetype::kRwUpdate,
      Archetype::kTempFile,      Archetype::kPostprocess,
      Archetype::kQuadTool,      Archetype::kSharedPointer,
      Archetype::kStatusCheck,   Archetype::kSystem,
  };
  for (const Archetype a : kAll) {
    if (name == to_string(a)) {
      if (out != nullptr) *out = a;
      return true;
    }
  }
  return false;
}

WorkloadConfig WorkloadConfig::nas_1993() { return WorkloadConfig{}; }

WorkloadConfig WorkloadConfig::smoke() {
  WorkloadConfig c;
  c.scale = 0.01;
  c.seed = 7;
  return c;
}

namespace {

/// Node-count distribution for multi-node jobs (Figure 2's shape: all
/// powers of two, mid-size cubes most popular by count, 128-node jobs
/// common enough to dominate node-hours).
std::int32_t draw_multi_nodes(Rng& rng) {
  static constexpr double kWeights[] = {0.07, 0.13, 0.15, 0.18,
                                        0.21, 0.16, 0.10};
  const auto i = rng.weighted(kWeights);  // 2^(i+1)
  return 1 << (i + 1);
}

std::int64_t clampi(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return std::clamp(v, lo, hi);
}

/// Small request ("record") size: 1-2 distinct sizes per file is a paper
/// finding (Table 3), so a file's record size is drawn once and reused.
std::int64_t draw_record(Rng& rng, const SizeConfig& s) {
  // Mostly round-ish sizes programmers pick: multiples of 8 around a few
  // hundred bytes, occasionally a few KB.
  const double u = rng.uniform01();
  std::int64_t r;
  if (u < 0.65) {
    r = 8 * rng.uniform_range(10, 64);        // 80 .. 512
  } else if (u < 0.92) {
    r = 64 * rng.uniform_range(4, 24);        // 256 .. 1536
  } else {
    r = 256 * rng.uniform_range(4, 12);       // 1 KB .. 3 KB
  }
  return clampi(r, s.record_min, s.record_max);
}

std::int64_t draw_chunk(Rng& rng, const SizeConfig& s) {
  const std::int64_t r = 64 * kKiB * rng.uniform_range(2, 16);  // 128K..1M
  return clampi(r, s.chunk_min, s.chunk_max);
}

/// Principal file size (Figure 3): lognormal body with two application
/// clusters.
std::int64_t draw_file_size(Rng& rng, const SizeConfig& s) {
  if (rng.chance(s.cluster_fraction)) {
    const std::int64_t center =
        rng.chance(0.55) ? s.cluster_small : s.cluster_large;
    // +-10% around the cluster (same app, slightly different runs).
    const double jitter = 0.9 + 0.2 * rng.uniform01();
    return clampi(static_cast<std::int64_t>(center * jitter), s.file_min,
                  s.file_max);
  }
  const double v = rng.lognormal(s.file_lognormal_mu, s.file_lognormal_sigma);
  return clampi(static_cast<std::int64_t>(v), s.file_min, s.file_max);
}

struct Pools {
  // Index ranges into GeneratedWorkload::inputs.
  std::vector<std::int32_t> configs;  // small parameter/deck files
  std::vector<std::int32_t> mediums;  // general shared inputs
  std::vector<std::int32_t> grids;    // large meshes read interleaved
  std::vector<std::int32_t> bigs;     // multi-MB shared files
};

}  // namespace

GeneratedWorkload generate(const WorkloadConfig& config) {
  CHECK(config.scale > 0.0, "scale must be positive");
  Rng rng(config.seed);
  GeneratedWorkload w;
  w.config = config;
  w.window = static_cast<MicroSec>(config.trace_hours * config.scale * kHour);

  const auto scaled = [&](std::int32_t n) {
    const auto v =
        static_cast<std::int32_t>(std::llround(n * config.scale));
    return std::max(v, n > 0 ? 1 : 0);
  };

  // ---- Pre-populated input pools --------------------------------------
  Pools pools;
  const auto add_input = [&](const std::string& path, std::int64_t bytes) {
    w.inputs.push_back({path, bytes});
    return static_cast<std::int32_t>(w.inputs.size() - 1);
  };
  const int n_configs = std::max(8, scaled(400));
  for (int i = 0; i < n_configs; ++i) {
    pools.configs.push_back(add_input(
        "deck/params" + std::to_string(i) + ".in",
        clampi(static_cast<std::int64_t>(rng.lognormal(9.2, 0.8)), 1 * kKiB,
               64 * kKiB)));
  }
  const int n_mediums = std::max(8, scaled(700));
  for (int i = 0; i < n_mediums; ++i) {
    pools.mediums.push_back(add_input("grid/mesh" + std::to_string(i) + ".g",
                                      draw_file_size(rng, config.sizes)));
  }
  // Meshes read interleaved by whole jobs: big enough (hundreds of 4 KB
  // blocks) that rank-progress spread creates long-distance interprocess
  // reuse — the traffic Figure 9's cache-size knee comes from.
  const int n_grids = std::max(8, scaled(250));
  for (int i = 0; i < n_grids; ++i) {
    const std::int64_t bytes =
        rng.chance(0.3)
            ? config.sizes.cluster_large
            : clampi(static_cast<std::int64_t>(rng.lognormal(13.7, 0.8)),
                     256 * kKiB, 4 * kMiB);
    pools.grids.push_back(
        add_input("mesh/big" + std::to_string(i) + ".g", bytes));
  }
  const int n_bigs = std::max(4, scaled(60));
  for (int i = 0; i < n_bigs; ++i) {
    pools.bigs.push_back(
        add_input("field/q" + std::to_string(i) + ".dat",
                  clampi(static_cast<std::int64_t>(rng.lognormal(16.1, 0.6)),
                         4 * kMiB, 48 * kMiB)));
  }

  // ---- Job population --------------------------------------------------
  std::vector<JobSpec> jobs;
  // Arrivals follow a nonhomogeneous Poisson process with a diurnal rate
  // (thinning): more submissions mid-afternoon than at 4 am.
  const double amplitude = std::clamp(config.diurnal_amplitude, 0.0, 0.99);
  const auto draw_arrival = [&] {
    for (;;) {
      const auto t = static_cast<MicroSec>(rng.uniform01() *
                                           static_cast<double>(w.window));
      const double hour =
          static_cast<double>(t % (24 * kHour)) / static_cast<double>(kHour);
      constexpr double kPi = 3.14159265358979;
      const double rate =
          1.0 + amplitude * std::cos(2.0 * kPi * (hour - 15.0) / 24.0);
      if (rng.chance(rate / (1.0 + amplitude))) return t;
    }
  };

  const auto pick = [&](const std::vector<std::int32_t>& pool) {
    return pool[rng.uniform(pool.size())];
  };

  // Per-node input files are created on demand, one range per job.
  const auto add_range = [&](JobSpec& spec, const char* prefix, double mu,
                             double sigma, std::int64_t lo, std::int64_t hi) {
    for (std::int32_t i = 0; i < spec.nodes; ++i) {
      const std::int64_t bytes =
          clampi(static_cast<std::int64_t>(rng.lognormal(mu, sigma)), lo, hi);
      spec.input_files.push_back(add_input(
          std::string(prefix) + std::to_string(w.inputs.size()) + ".chk",
          bytes));
    }
  };
  // ~2 MB per-node restart dumps.
  const auto add_restart_range = [&](JobSpec& spec) {
    add_range(spec, "restart/r", 14.6, 0.6, 256 * kKiB, 8 * kMiB);
  };
  // Smaller per-node boundary-condition files, read once at startup.
  const auto add_bc_range = [&](JobSpec& spec) {
    add_range(spec, "bc/b", 12.6, 0.7, 32 * kKiB, 2 * kMiB);
  };

  const auto finish = [&](JobSpec spec) {
    spec.arrival = draw_arrival();
    spec.seed = rng.next();
    spec.mean_think = config.mean_think;
    spec.mean_phase_think = config.mean_phase_think;
    jobs.push_back(std::move(spec));
  };

  // Status checker: >800 runs of one single-node monitor, no CFS I/O.
  for (int i = 0; i < scaled(config.mix.status_check_jobs); ++i) {
    JobSpec s;
    s.nodes = 1;
    s.traced = false;
    s.archetype = Archetype::kStatusCheck;
    finish(std::move(s));
  }
  // Other system programs (ls, cp, ftp ...): untraced, host I/O only.
  for (int i = 0; i < scaled(config.mix.system_jobs); ++i) {
    JobSpec s;
    s.nodes = 1;
    s.traced = false;
    s.archetype = Archetype::kSystem;
    finish(std::move(s));
  }

  // Traced single-node user jobs (paper: at least 41).
  for (int i = 0; i < scaled(config.mix.traced_single_user_jobs); ++i) {
    JobSpec s;
    s.nodes = 1;
    s.traced = true;
    s.archetype = Archetype::kPostprocess;
    s.params.record_bytes = draw_record(rng, config.sizes);
    s.params.variant = rng.chance(0.3) ? 1 : 0;  // 1: also writes a summary
    s.input_files.push_back(pick(pools.mediums));
    finish(std::move(s));
  }

  // User jobs that were not relinked against the instrumented library:
  // they do real CFS I/O but emit no records.
  const auto make_user_job = [&](bool traced, bool multi) {
    JobSpec s;
    s.nodes = multi ? draw_multi_nodes(rng) : 1;
    s.traced = traced;

    const JobMixConfig& m = config.mix;
    const double weights[] = {m.w_broadcast_read,   m.w_cfd_solver,
                              m.w_slab_read,        m.w_checkpoint_write,
                              m.w_single_dump,      m.w_rw_update,
                              m.w_temp_file,        m.w_shared_pointer,
                              m.w_quad_tool};
    static constexpr Archetype kArch[] = {
        Archetype::kBroadcastRead,   Archetype::kCfdSolver,
        Archetype::kSlabRead,        Archetype::kCheckpointWrite,
        Archetype::kSingleDump,      Archetype::kRwUpdate,
        Archetype::kTempFile,        Archetype::kSharedPointer,
        Archetype::kQuadTool};
    s.archetype = kArch[rng.weighted(weights)];
    if (!multi && (s.archetype == Archetype::kSharedPointer ||
                   s.archetype == Archetype::kSlabRead)) {
      s.archetype = Archetype::kPostprocess;  // needs >1 node to make sense
    }
    auto& p = s.params;
    p.record_bytes = draw_record(rng, config.sizes);
    p.chunk_bytes = draw_chunk(rng, config.sizes);

    switch (s.archetype) {
      case Archetype::kBroadcastRead: {
        // Every node reads ONE shared input; usually in a single request
        // (variant 0), sometimes streamed in records (variant 1).  These
        // are Table 1's one-file jobs and Figure 7's fully byte-shared
        // read-only files.
        s.input_files.push_back(pick(pools.mediums));
        p.variant = rng.chance(0.3) ? 1 : 0;
        break;
      }
      case Archetype::kCfdSolver: {
        p.reads_restart = rng.chance(0.95);
        p.open_extra_untouched = rng.chance(config.untouched_open_fraction);
        // Fine-grained interleave: a burst must stay well under the 4 KB
        // block so each block is shared by several ranks (interprocess
        // spatial locality, §4.8).
        p.burst = static_cast<std::int32_t>(rng.uniform_range(2, 3));
        p.snapshots = static_cast<std::int32_t>(rng.uniform_range(3, 7));
        // Snapshot size: a cluster of runs dumps ~25 KB per node (Figure
        // 3's 25 KB bump, "may be due to just one or two applications");
        // the rest spread lognormally around that.
        const std::int64_t out_bytes =
            rng.chance(0.45)
                ? config.sizes.cluster_small
                : clampi(static_cast<std::int64_t>(rng.lognormal(10.2, 0.9)),
                         6 * kKiB, 384 * kKiB);
        // Grid/output records stay a few hundred bytes (Figure 4's
        // small-read mass) so interleave bursts stay sub-block.
        p.record_bytes = 8 * rng.uniform_range(32, 80);  // 256..640
        p.out_records = static_cast<std::int32_t>(std::max<std::int64_t>(
            (out_bytes - 512) / p.record_bytes, 4));
        // variant bits: 1 = r/w scratch file, 2 = selective restart read,
        // 4 = outputs tuned to the 4 KB file-system block (Figure 4's
        // small peak at 4 KB), 8 = restart streamed in large chunks,
        // 16 = decks scanned fgets-style in small lines.
        p.variant = 0;
        if (rng.chance(0.05)) p.variant |= 1;
        const double restart_style = rng.uniform01();
        if (restart_style < 0.34) {
          p.variant |= 2;
        } else if (restart_style < 0.44) {
          p.variant |= 8;
        }
        if (rng.chance(0.025)) p.variant |= 4;
        if (rng.chance(0.5)) p.variant |= 16;
        s.input_files.push_back(pick(pools.grids));  // interleaved grid
        const int extra = static_cast<int>(rng.uniform_range(2, 4));
        for (int i = 0; i < extra; ++i) {
          s.input_files.push_back(pick(pools.configs));  // broadcast decks
        }
        if (p.reads_restart) add_restart_range(s);
        p.reads_bc = rng.chance(0.7);
        if (p.reads_bc) add_bc_range(s);  // per-node boundary conditions
        break;
      }
      case Archetype::kSlabRead: {
        s.input_files.push_back(pick(pools.bigs));
        p.snapshots = 0;
        break;
      }
      case Archetype::kCheckpointWrite: {
        p.reads_restart = rng.chance(0.9);
        p.snapshots = static_cast<std::int32_t>(rng.uniform_range(2, 7));
        // Per-node checkpoint size: a node's share of the field data.
        p.file_bytes =
            clampi(static_cast<std::int64_t>(rng.lognormal(14.4, 0.7)),
                   128 * kKiB, 8 * kMiB);
        // Half the checkpointers write an exact multiple of the chunk
        // (one request size); the rest leave an odd tail (two sizes).
        if (rng.chance(0.5)) {
          p.file_bytes =
              std::max<std::int64_t>(p.file_bytes / p.chunk_bytes, 1) *
              p.chunk_bytes;
        }
        // variant bits: 1 = all nodes write disjoint slabs of ONE shared
        // file (Figure 7's unshared write-only population), 2 = nodes also
        // overwrite a common header region (the small byte-shared tail).
        p.variant = 0;
        if (rng.chance(0.3)) {
          p.variant |= 1;
          if (rng.chance(0.08)) p.variant |= 2;
        }
        p.open_extra_untouched =
            rng.chance(config.untouched_open_fraction * 0.6);
        if (rng.chance(0.6)) p.variant |= 16;  // fgets-style deck scanning
        s.input_files.push_back(pick(pools.configs));  // broadcast deck
        if (p.reads_restart) add_restart_range(s);
        break;
      }
      case Archetype::kSingleDump: {
        p.snapshots = static_cast<std::int32_t>(rng.uniform_range(1, 4));
        p.file_bytes = draw_file_size(rng, config.sizes);
        break;
      }
      case Archetype::kQuadTool: {
        // The popular small utility behind Table 1's 120 four-file jobs:
        // reads three shared inputs, writes one summary.  A fifth of the
        // runs skip one input (the three-file bucket).
        s.nodes = std::min<std::int32_t>(s.nodes, 4);
        const int n_inputs = rng.chance(0.2) ? 2 : 3;
        for (int i = 0; i < n_inputs; ++i) {
          s.input_files.push_back(rng.chance(0.6) ? pick(pools.configs)
                                                  : pick(pools.mediums));
        }
        p.variant = rng.chance(0.38) ? 1 : 0;  // 1: fgets-style record reads
        p.file_bytes = clampi(
            static_cast<std::int64_t>(rng.lognormal(10.2, 0.7)), 2 * kKiB,
            256 * kKiB);
        break;
      }
      case Archetype::kRwUpdate: {
        s.nodes = std::min<std::int32_t>(s.nodes, 32);
        s.input_files.push_back(pick(pools.mediums));
        p.phases = static_cast<std::int32_t>(rng.uniform_range(15, 50));
        p.variant = rng.chance(0.6) ? 1 : 0;  // 1: per-node partition files
        if (p.variant == 1) add_restart_range(s);
        break;
      }
      case Archetype::kTempFile: {
        // "Nearly all [temporary files] may have been from one application"
        // — a full-machine out-of-core attempt, run a handful of times
        // (also added explicitly below so small scales still see it).
        s.nodes = 128;
        p.out_records = static_cast<std::int32_t>(rng.uniform_range(20, 60));
        break;
      }
      case Archetype::kSharedPointer: {
        s.input_files.push_back(pick(pools.mediums));
        s.nodes = std::min(s.nodes, 8);
        p.variant = static_cast<std::uint8_t>(rng.uniform_range(1, 3));
        p.phases = static_cast<std::int32_t>(rng.uniform_range(8, 40));
        break;
      }
      case Archetype::kPostprocess: {
        s.input_files.push_back(pick(pools.mediums));
        p.variant = rng.chance(0.3) ? 1 : 0;
        break;
      }
      default:
        break;
    }
    finish(std::move(s));
  };

  for (int i = 0; i < scaled(config.mix.untraced_single_user_jobs); ++i) {
    make_user_job(false, false);
  }
  for (int i = 0; i < scaled(config.mix.untraced_multi_user_jobs); ++i) {
    make_user_job(false, true);
  }
  for (int i = 0; i < scaled(config.mix.traced_multi_user_jobs); ++i) {
    make_user_job(true, true);
  }

  // The temp-file application: one out-of-core experiment rerun a few
  // times, accounting for nearly all temporary files (paper §4.2).
  for (int i = 0; i < scaled(3); ++i) {
    JobSpec s;
    s.nodes = 128;
    s.traced = true;
    s.archetype = Archetype::kTempFile;
    s.params.record_bytes = draw_record(rng, config.sizes);
    s.params.out_records = static_cast<std::int32_t>(rng.uniform_range(20, 60));
    finish(std::move(s));
  }

  // The two one-off jobs the paper can see in its own data: the 1 MB-request
  // checkpointer behind Figure 4's data spike, and the job that opened 2217
  // files (17 snapshots on 128 nodes + inputs).
  if (config.scale >= 0.5) {
    JobSpec big;
    big.nodes = 64;
    big.traced = true;
    big.archetype = Archetype::kCheckpointWrite;
    big.params.chunk_bytes = 1 * kMiB;
    big.params.snapshots = 6;
    big.params.file_bytes = 8 * kMiB;
    big.input_files.push_back(pick(pools.configs));
    finish(std::move(big));

    JobSpec many;
    many.nodes = 128;
    many.traced = true;
    many.archetype = Archetype::kCfdSolver;
    many.params.record_bytes = draw_record(rng, config.sizes);
    many.params.chunk_bytes = draw_chunk(rng, config.sizes);
    many.params.burst = 4;
    many.params.snapshots = 17;
    many.params.out_records = 30;
    many.input_files.push_back(pick(pools.mediums));
    finish(std::move(many));
  }

  std::sort(jobs.begin(), jobs.end(),
            [](const JobSpec& a, const JobSpec& b) {
              return a.arrival < b.arrival;
            });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].job = static_cast<cfs::JobId>(i);
  }
  w.jobs = std::move(jobs);
  return w;
}

// ---------------------------------------------------------------------
// Script compilation
// ---------------------------------------------------------------------
namespace {

class ScriptBuilder {
 public:
  ScriptBuilder(const JobSpec& spec, const GeneratedWorkload& w)
      : spec_(spec), w_(w), rng_(spec.seed) {
    scripts_.nodes.resize(static_cast<std::size_t>(spec.nodes));
    // Compute-rate imbalance: ranks of one SPMD job progress at different
    // speeds, so nodes spread out across a shared file as they read it.
    // This is what turns per-block sharing into the long-reuse-distance
    // interprocess locality the I/O-node cache (Figure 9) feeds on.
    rate_.reserve(scripts_.nodes.size());
    for (std::size_t n = 0; n < scripts_.nodes.size(); ++n) {
      rate_.push_back(0.5 + 2.0 * rng_.uniform01());
    }
  }

  JobScripts build() {
    switch (spec_.archetype) {
      case Archetype::kBroadcastRead: broadcast_read(); break;
      case Archetype::kCfdSolver: cfd_solver(); break;
      case Archetype::kSlabRead: slab_read(); break;
      case Archetype::kCheckpointWrite: checkpoint_write(); break;
      case Archetype::kSingleDump: single_dump(); break;
      case Archetype::kRwUpdate: rw_update(); break;
      case Archetype::kTempFile: temp_file(); break;
      case Archetype::kPostprocess: postprocess(); break;
      case Archetype::kQuadTool: quad_tool(); break;
      case Archetype::kSharedPointer: shared_pointer(); break;
      case Archetype::kStatusCheck:
      case Archetype::kSystem:
        no_cfs_job();
        break;
    }
    return std::move(scripts_);
  }

 private:
  // --- path helpers ----------------------------------------------------
  std::int32_t input_path(std::size_t k) {
    const auto idx = static_cast<std::size_t>(spec_.input_files.at(k));
    return intern(w_.inputs.at(idx).path);
  }
  std::int64_t input_bytes(std::size_t k) const {
    const auto idx = static_cast<std::size_t>(spec_.input_files.at(k));
    return w_.inputs.at(idx).bytes;
  }
  std::int32_t job_path(const std::string& name) {
    return intern("j" + std::to_string(spec_.job) + "/" + name);
  }
  std::int32_t intern(const std::string& path) {
    for (std::size_t i = 0; i < scripts_.paths.size(); ++i) {
      if (scripts_.paths[i] == path) return static_cast<std::int32_t>(i);
    }
    scripts_.paths.push_back(path);
    return static_cast<std::int32_t>(scripts_.paths.size() - 1);
  }

  // --- op helpers --------------------------------------------------------
  std::vector<Op>& ops(std::int32_t node) {
    return scripts_.nodes[static_cast<std::size_t>(node)].ops;
  }
  MicroSec think(std::int32_t n) {
    return static_cast<MicroSec>(
        rng_.exponential(static_cast<double>(spec_.mean_think)) *
        rate_[static_cast<std::size_t>(n)]);
  }
  MicroSec long_think() {
    return static_cast<MicroSec>(
        rng_.exponential(static_cast<double>(spec_.mean_phase_think)));
  }
  /// Startup compute before the node's first I/O.
  MicroSec startup_think() {
    return static_cast<MicroSec>(rng_.uniform_range(20, 115)) * kSecond;
  }
  void open(std::int32_t n, std::int32_t path, std::uint8_t flags,
            IoMode mode = IoMode::kIndependent, MicroSec t = -1) {
    Op op;
    op.kind = OpKind::kOpen;
    op.path = path;
    op.flags = flags;
    op.mode = mode;
    op.think = t < 0 ? think(n) : t;
    ops(n).push_back(op);
  }
  void read(std::int32_t n, std::int32_t path, std::int64_t bytes) {
    Op op;
    op.kind = OpKind::kRead;
    op.path = path;
    op.bytes = bytes;
    op.think = think(n);
    ops(n).push_back(op);
  }
  void write(std::int32_t n, std::int32_t path, std::int64_t bytes) {
    Op op;
    op.kind = OpKind::kWrite;
    op.path = path;
    op.bytes = bytes;
    op.think = think(n);
    ops(n).push_back(op);
  }
  void seek(std::int32_t n, std::int32_t path, std::int64_t offset,
            Whence whence) {
    Op op;
    op.kind = OpKind::kSeek;
    op.path = path;
    op.offset = offset;
    op.whence = whence;
    op.think = 0;
    ops(n).push_back(op);
  }
  void close(std::int32_t n, std::int32_t path) {
    Op op;
    op.kind = OpKind::kClose;
    op.path = path;
    op.think = think(n);
    ops(n).push_back(op);
  }
  void unlink(std::int32_t n, std::int32_t path) {
    Op op;
    op.kind = OpKind::kUnlink;
    op.path = path;
    op.think = think(n);
    ops(n).push_back(op);
  }
  void pause(std::int32_t n, MicroSec t) {
    Op op;
    op.kind = OpKind::kThink;
    op.think = t;
    ops(n).push_back(op);
  }
  /// Inserts a job-wide synchronization point on every node.  Scripts must
  /// emit the same number of barriers on every node.
  void barrier_all() {
    for (std::int32_t n = 0; n < spec_.nodes; ++n) {
      Op op;
      op.kind = OpKind::kBarrier;
      ops(n).push_back(op);
    }
  }

  // Streams a whole file consecutively in `rec`-sized requests.
  void stream_read(std::int32_t n, std::int32_t path, std::int64_t bytes,
                   std::int64_t rec) {
    std::int64_t left = bytes;
    while (left > 0) {
      const std::int64_t take = std::min(left, rec);
      read(n, path, take);
      left -= take;
    }
  }
  void stream_write(std::int32_t n, std::int32_t path, std::int64_t bytes,
                    std::int64_t rec) {
    std::int64_t left = bytes;
    while (left > 0) {
      const std::int64_t take = std::min(left, rec);
      write(n, path, take);
      left -= take;
    }
  }
  /// Reads a whole per-node restart file in one request — one access per
  /// node per file, Table 2's zero-interval population.
  void restart_read(std::int32_t n, std::size_t input_k) {
    const std::int32_t path = input_path(input_k);
    open(n, path, cfs::kRead);
    read(n, path, input_bytes(input_k));
    close(n, path);
  }
  /// Reads selected fields of a per-node file: bursts of records with a
  /// fixed skip between them.  Sequential but non-consecutive, exactly two
  /// interval sizes {0, skip} — the paper's interleaved-looking read-only
  /// signature on a single node.
  void selective_read(std::int32_t n, std::size_t input_k) {
    const std::int32_t path = input_path(input_k);
    const std::int64_t bytes = input_bytes(input_k);
    const std::int64_t rec = 8 * rng_.uniform_range(24, 100);  // 192-800 B
    const std::int32_t burst =
        static_cast<std::int32_t>(rng_.uniform_range(2, 4));
    const std::int64_t burst_bytes = burst * rec;
    // Skip several burst-widths between reads (reads a field subset).
    const std::int64_t skip = burst_bytes * rng_.uniform_range(2, 6);
    std::int64_t rounds = bytes / (burst_bytes + skip);
    rounds = std::clamp<std::int64_t>(rounds, 1, 250);
    open(n, path, cfs::kRead);
    for (std::int64_t j = 0; j < rounds; ++j) {
      for (std::int32_t b = 0; b < burst; ++b) read(n, path, rec);
      if (j + 1 < rounds) seek(n, path, skip, Whence::kCurrent);
    }
    close(n, path);
  }
  /// A per-node record-structured output file: one header + fixed records
  /// (Table 3's dominant two-request-size shape).
  void record_output(std::int32_t n, const std::string& name,
                     std::int32_t records, std::int64_t rec) {
    const std::int32_t path = job_path(name);
    open(n, path, cfs::kWrite | cfs::kCreate);
    write(n, path, 512);
    for (std::int32_t i = 0; i < records; ++i) write(n, path, rec);
    close(n, path);
  }

  // --- archetypes -------------------------------------------------------
  void broadcast_read();
  void cfd_solver();
  void slab_read();
  void checkpoint_write();
  void single_dump();
  void rw_update();
  void temp_file();
  void postprocess();
  void quad_tool();
  void shared_pointer();
  void no_cfs_job();

  const JobSpec& spec_;
  const GeneratedWorkload& w_;
  Rng rng_;
  JobScripts scripts_;
  std::vector<double> rate_;  // per-rank compute-speed multiplier
};

void ScriptBuilder::broadcast_read() {
  const auto P = spec_.nodes;
  const std::int32_t path = input_path(0);
  const std::int64_t bytes = input_bytes(0);
  const bool stream = spec_.params.variant == 1;
  const std::int64_t rec =
      std::clamp<std::int64_t>(spec_.params.record_bytes, 128, 768);
  for (std::int32_t n = 0; n < P; ++n) pause(n, startup_think());
  barrier_all();  // SPMD code: everyone reads the input at the same point
  for (std::int32_t n = 0; n < P; ++n) {
    open(n, path, cfs::kRead);
    if (stream) {
      stream_read(n, path, bytes, rec);
    } else {
      read(n, path, bytes);
    }
    close(n, path);
    pause(n, long_think());
  }
}

void ScriptBuilder::quad_tool() {
  // Table 1's four-file spike: a small utility that broadcast-reads its
  // inputs and has rank 0 dump one summary in a single write.
  const auto P = spec_.nodes;
  for (std::int32_t n = 0; n < P; ++n) pause(n, startup_think());
  barrier_all();
  for (std::size_t k = 0; k < spec_.input_files.size(); ++k) {
    const std::int32_t path = input_path(k);
    for (std::int32_t n = 0; n < P; ++n) {
      open(n, path, cfs::kRead);
      if (spec_.params.variant == 1) {
        // fgets-style record scanning — the small consecutive reads behind
        // Figure 8's high-hit-rate job cluster.
        stream_read(n, path, input_bytes(k),
                    std::clamp<std::int64_t>(spec_.params.record_bytes, 128,
                                             640));
      } else {
        read(n, path, input_bytes(k));
      }
      close(n, path);
    }
  }
  const std::int32_t out = job_path("summary.out");
  open(0, out, cfs::kWrite | cfs::kCreate);
  write(0, out, spec_.params.file_bytes);
  close(0, out);
}

void ScriptBuilder::cfd_solver() {
  const auto P = spec_.nodes;
  const auto& p = spec_.params;
  for (std::int32_t n = 0; n < P; ++n) pause(n, startup_think());
  barrier_all();  // collective reads start at the same code point
  std::size_t next_input = 0;
  const std::int32_t grid = input_path(next_input);
  const std::int64_t grid_bytes = input_bytes(next_input);
  ++next_input;

  // Broadcast the parameter decks: one whole-file read per node, or an
  // fgets-style line scan (variant bit 16) — text decks are parsed line by
  // line, which is where many of Figure 8's high-hit-rate jobs come from.
  const std::size_t bc_base =
      spec_.input_files.size() -
      (p.reads_bc ? static_cast<std::size_t>(P) : 0);
  const std::size_t shared_inputs =
      bc_base - (p.reads_restart ? static_cast<std::size_t>(P) : 0);
  for (std::size_t k = next_input; k < shared_inputs; ++k) {
    const std::int32_t path = input_path(k);
    // One line size per deck: every rank runs the same parser (Table 3).
    const std::int64_t line = 8 * rng_.uniform_range(16, 48);
    for (std::int32_t n = 0; n < P; ++n) {
      open(n, path, cfs::kRead);
      if ((p.variant & 16) != 0) {
        stream_read(n, path, input_bytes(k), line);
      } else {
        read(n, path, input_bytes(k));
      }
      close(n, path);
    }
  }

  // Per-node boundary conditions: one read per node per file (Table 2's
  // zero-interval population).
  if (p.reads_bc) {
    for (std::int32_t n = 0; n < P; ++n) {
      restart_read(n, bc_base + static_cast<std::size_t>(n));
    }
  }

  // Per-node restart load: a selective field-skipping read (variant bit 2),
  // a chunked consecutive stream (bit 8), or one whole-file read.
  if (p.reads_restart) {
    for (std::int32_t n = 0; n < P; ++n) {
      const std::size_t k = shared_inputs + static_cast<std::size_t>(n);
      if ((p.variant & 2) != 0) {
        selective_read(n, k);
      } else if ((p.variant & 8) != 0) {
        const std::int32_t path = input_path(k);
        open(n, path, cfs::kRead);
        stream_read(n, path, input_bytes(k), p.chunk_bytes);
        close(n, path);
      } else {
        restart_read(n, k);
      }
    }
  }

  // The opened-but-never-touched flag/lock file.
  if (p.open_extra_untouched) {
    for (std::int32_t n = 0; n < P; ++n) {
      const std::int32_t path = job_path("lock" + std::to_string(n));
      open(n, path, cfs::kWrite | cfs::kCreate);
      close(n, path);
    }
  }

  // Each timestep phase interleave-reads the shared grid and then dumps a
  // per-node snapshot.  The grid read: node n takes bursts n, n+P, ...
  // Per node: offsets strictly increase (sequential), bursts are
  // consecutive internally, and exactly two interval sizes occur
  // {0, (P-1)*burst*rec} — the paper's Table 2/Figure 6 signature.  The
  // same 4 KB grid block is touched by several nodes whose progress drifts
  // apart (rate_), producing the interprocess spatial locality that drives
  // the I/O-node cache (Figure 9).
  const std::int64_t rec = p.record_bytes;
  const std::int64_t burst_bytes = static_cast<std::int64_t>(p.burst) * rec;
  const std::int64_t stride = static_cast<std::int64_t>(P) * burst_bytes;
  // Small jobs only sweep a prefix of a big mesh each phase.
  const std::int64_t rounds =
      std::clamp<std::int64_t>(grid_bytes / stride, 1, 400);
  // Variant bit 4 marks the users who tuned their output record size to
  // the 4 KB file-system block (Figure 4's small peak at 4 KB).
  const std::int64_t out_rec = (p.variant & 4) ? 4096 : rec;
  for (std::int32_t snap = 0; snap < p.snapshots; ++snap) {
    for (std::int32_t n = 0; n < P; ++n) {
      open(n, grid, cfs::kRead);
      seek(n, grid, static_cast<std::int64_t>(n) * burst_bytes, Whence::kSet);
      for (std::int64_t j = 0; j < rounds; ++j) {
        for (std::int32_t b = 0; b < p.burst; ++b) read(n, grid, rec);
        if (j + 1 < rounds) {
          seek(n, grid, (static_cast<std::int64_t>(P) - 1) * burst_bytes,
               Whence::kCurrent);
        }
      }
      close(n, grid);
    }
    for (std::int32_t n = 0; n < P; ++n) {
      pause(n, long_think());
      record_output(n,
                    "s" + std::to_string(snap) + "_n" + std::to_string(n) +
                        ".q",
                    p.out_records, out_rec);
    }
  }

  // Optional read/write scratch file, updated at random record offsets —
  // the non-sequential read-write population of Figure 5.
  if ((p.variant & 1) != 0) {
    for (std::int32_t n = 0; n < P; ++n) {
      const std::int32_t path = job_path("scratch" + std::to_string(n));
      open(n, path, cfs::kRead | cfs::kWrite | cfs::kCreate);
      stream_write(n, path, 64 * rec, rec);
      const std::int64_t recs = 64;
      for (int u = 0; u < 30; ++u) {
        const std::int64_t at = rng_.uniform_range(0, recs - 1) * rec;
        seek(n, path, at, Whence::kSet);
        read(n, path, rec);
        seek(n, path, -rec, Whence::kCurrent);
        write(n, path, rec);
      }
      close(n, path);
    }
  }
}

void ScriptBuilder::slab_read() {
  const auto P = spec_.nodes;
  const std::int32_t path = input_path(0);
  const std::int64_t bytes = input_bytes(0);
  const std::int64_t slab = bytes / P;
  for (std::int32_t n = 0; n < P; ++n) {
    pause(n, startup_think());
    open(n, path, cfs::kRead);
    seek(n, path, static_cast<std::int64_t>(n) * slab, Whence::kSet);
    read(n, path, slab);
    close(n, path);
  }
  if (spec_.params.snapshots > 0) {
    for (std::int32_t n = 0; n < P; ++n) {
      record_output(n, "part" + std::to_string(n) + ".out",
                    spec_.params.out_records, spec_.params.record_bytes);
    }
  }
}

void ScriptBuilder::checkpoint_write() {
  const auto P = spec_.nodes;
  const auto& p = spec_.params;
  for (std::int32_t n = 0; n < P; ++n) pause(n, startup_think());
  barrier_all();
  // Broadcast deck (line-scanned by most jobs, variant bit 16).
  const std::int32_t deck = input_path(0);
  const std::int64_t line = 8 * rng_.uniform_range(16, 48);
  for (std::int32_t n = 0; n < P; ++n) {
    open(n, deck, cfs::kRead);
    if ((p.variant & 16) != 0) {
      stream_read(n, deck, input_bytes(0), line);
    } else {
      read(n, deck, input_bytes(0));
    }
    close(n, deck);
  }
  if (p.reads_restart) {
    for (std::int32_t n = 0; n < P; ++n) {
      restart_read(n, 1 + static_cast<std::size_t>(n));
    }
  }
  if (p.open_extra_untouched) {
    for (std::int32_t n = 0; n < P; ++n) {
      const std::int32_t path = job_path("stamp" + std::to_string(n));
      open(n, path, cfs::kWrite | cfs::kCreate);
      close(n, path);
    }
  }
  const bool shared_file = (p.variant & 1) != 0;
  const bool header_overlap = (p.variant & 2) != 0;
  for (std::int32_t snap = 0; snap < p.snapshots; ++snap) {
    if (shared_file) {
      // All nodes write disjoint slabs of one shared checkpoint: a
      // write-only file concurrently open on every node with (usually) no
      // byte shared (Figure 7's write-only curve).  With header_overlap
      // every node also rewrites a common 512-byte header.
      const std::int32_t path = job_path("C" + std::to_string(snap) + ".chk");
      for (std::int32_t n = 0; n < P; ++n) pause(n, long_think());
      barrier_all();  // checkpoints are collective
      for (std::int32_t n = 0; n < P; ++n) {
        open(n, path, cfs::kWrite | cfs::kCreate);
        if (header_overlap) {
          write(n, path, 512);
          seek(n, path, 512 + static_cast<std::int64_t>(n) * p.file_bytes,
               Whence::kSet);
        } else {
          seek(n, path, static_cast<std::int64_t>(n) * p.file_bytes,
               Whence::kSet);
        }
        stream_write(n, path, p.file_bytes, p.chunk_bytes);
        close(n, path);
      }
    } else {
      for (std::int32_t n = 0; n < P; ++n) {
        pause(n, long_think());
        const std::int32_t path = job_path(
            "c" + std::to_string(snap) + "_n" + std::to_string(n) + ".chk");
        open(n, path, cfs::kWrite | cfs::kCreate);
        // Large chunks plus one odd-size tail: 2 distinct request sizes.
        stream_write(n, path, p.file_bytes, p.chunk_bytes);
        close(n, path);
      }
    }
  }
}

void ScriptBuilder::single_dump() {
  const auto P = spec_.nodes;
  for (std::int32_t n = 0; n < P; ++n) pause(n, startup_think());
  for (std::int32_t snap = 0; snap < spec_.params.snapshots; ++snap) {
    for (std::int32_t n = 0; n < P; ++n) {
      if (snap > 0) pause(n, long_think());
      const std::int32_t path = job_path(
          "d" + std::to_string(snap) + "_n" + std::to_string(n) + ".out");
      open(n, path, cfs::kWrite | cfs::kCreate);
      write(n, path, spec_.params.file_bytes);  // the whole result at once
      close(n, path);
    }
  }
}

void ScriptBuilder::rw_update() {
  const auto P = spec_.nodes;
  const auto& p = spec_.params;
  // The table's record size tracks the file: a few hundred records total,
  // so the whole table gets touched by somebody (Figure 7's read-write
  // byte sharing) while records still straddle blocks (block sharing).
  const std::int64_t rec = std::clamp<std::int64_t>(
      8 * (input_bytes(0) / 192 / 8), 256, 4096);
  if (p.variant == 0) {
    // All nodes update random records of one shared table: heavy byte- and
    // block-sharing in a read-write file (Figure 7's read-write curves).
    const std::int32_t path = input_path(0);
    const std::int64_t recs = std::max<std::int64_t>(input_bytes(0) / rec, 1);
    for (std::int32_t n = 0; n < P; ++n) pause(n, startup_think());
    barrier_all();
    for (std::int32_t n = 0; n < P; ++n) {
      open(n, path, cfs::kRead | cfs::kWrite);
      for (std::int32_t u = 0; u < p.phases; ++u) {
        const std::int64_t at = rng_.uniform_range(0, recs - 1) * rec;
        seek(n, path, at, Whence::kSet);
        read(n, path, rec);
        seek(n, path, -rec, Whence::kCurrent);
        write(n, path, rec);
      }
      close(n, path);
    }
  } else {
    // Per-node partition files updated in place.
    for (std::int32_t n = 0; n < P; ++n) {
      const std::size_t k = 1 + static_cast<std::size_t>(n);
      const std::int32_t path = input_path(k);
      const std::int64_t recs =
          std::max<std::int64_t>(input_bytes(k) / rec, 1);
      open(n, path, cfs::kRead | cfs::kWrite);
      for (std::int32_t u = 0; u < p.phases; ++u) {
        const std::int64_t at = rng_.uniform_range(0, recs - 1) * rec;
        seek(n, path, at, Whence::kSet);
        read(n, path, rec);
        seek(n, path, -rec, Whence::kCurrent);
        write(n, path, rec);
      }
      close(n, path);
    }
  }
}

void ScriptBuilder::temp_file() {
  const auto P = spec_.nodes;
  const std::int64_t rec = spec_.params.record_bytes;
  const std::int32_t recs = spec_.params.out_records;
  for (std::int32_t n = 0; n < P; ++n) {
    const std::int32_t path = job_path("tmp" + std::to_string(n));
    open(n, path, cfs::kRead | cfs::kWrite | cfs::kCreate);
    for (std::int32_t i = 0; i < recs; ++i) write(n, path, rec);
    seek(n, path, 0, Whence::kSet);
    for (std::int32_t i = 0; i < recs; ++i) read(n, path, rec);
    close(n, path);
    unlink(n, path);
  }
}

void ScriptBuilder::postprocess() {
  pause(0, startup_think());
  const std::int32_t path = input_path(0);
  const std::int64_t rec =
      std::clamp<std::int64_t>(spec_.params.record_bytes, 128, 768);
  open(0, path, cfs::kRead);
  stream_read(0, path, input_bytes(0), rec);
  close(0, path);
  if (spec_.params.variant == 1) {
    const std::int32_t out = job_path("summary.out");
    open(0, out, cfs::kWrite | cfs::kCreate);
    write(0, out, rng_.uniform_range(2, 20) * 1024);
    close(0, out);
  }
}

void ScriptBuilder::shared_pointer() {
  const auto P = spec_.nodes;
  const auto& p = spec_.params;
  const std::int32_t path = input_path(0);
  const auto mode = static_cast<IoMode>(p.variant);  // 1, 2 or 3
  const std::int64_t rec = p.record_bytes;
  for (std::int32_t n = 0; n < P; ++n) open(n, path, cfs::kRead, mode);
  // Mode 2's round-robin rotation only makes sense once every node holds
  // the file open, so the app synchronizes after the collective open.
  barrier_all();
  // Each node issues one read per round; the shared pointer deals records
  // out in arrival (mode 1) or round-robin (modes 2-3) order.
  for (std::int32_t round = 0; round < p.phases; ++round) {
    for (std::int32_t n = 0; n < P; ++n) read(n, path, rec);
  }
  for (std::int32_t n = 0; n < P; ++n) close(n, path);
}

void ScriptBuilder::no_cfs_job() {
  // System programs and the status checker use host I/O only; they occupy
  // the machine (Figure 1) without touching CFS.  Runtimes of a minute or
  // two, matching quick interactive tools over the 10 Mbit Ethernet.
  const int phases = static_cast<int>(rng_.uniform_range(2, 6));
  for (std::int32_t n = 0; n < spec_.nodes; ++n) {
    for (int i = 0; i < phases; ++i) {
      pause(n, static_cast<MicroSec>(
                   rng_.exponential(static_cast<double>(25 * kSecond))));
    }
  }
}

}  // namespace

JobScripts build_scripts(const JobSpec& spec,
                         const GeneratedWorkload& workload) {
  CHECK(spec.nodes >= 1, "job with no nodes");
  ScriptBuilder builder(spec, workload);
  return builder.build();
}

}  // namespace charisma::workload
