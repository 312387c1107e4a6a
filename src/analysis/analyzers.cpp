#include "analysis/analyzers.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/table.hpp"
#include "util/units.hpp"

namespace charisma::analysis {

using util::Cdf;
using util::fmt;
using util::Histogram;
using util::Table;

// ---- Figure 1 -------------------------------------------------------------

JobConcurrencyResult analyze_job_concurrency(const SessionStore& store) {
  JobConcurrencyResult out;
  const auto& events = store.job_events();
  const util::MicroSec t0 = store.trace_start();
  util::MicroSec t_end = store.trace_end();
  for (const auto& e : events) t_end = std::max(t_end, e.time);
  out.observed_period = t_end - t0;
  if (out.observed_period <= 0) return out;

  std::map<int, util::MicroSec> time_at_level;
  int level = 0;
  util::MicroSec last = t0;
  for (const auto& e : events) {  // already chronological
    time_at_level[level] += std::max<util::MicroSec>(e.time - last, 0);
    last = std::max(last, e.time);
    level += e.start ? 1 : -1;
    out.max_concurrent = std::max(out.max_concurrent, level);
  }
  time_at_level[level] += std::max<util::MicroSec>(t_end - last, 0);

  const int top = std::max(out.max_concurrent, 8);
  out.time_fraction.assign(static_cast<std::size_t>(top) + 1, 0.0);
  const auto period = static_cast<double>(out.observed_period);
  for (const auto& [k, t] : time_at_level) {
    const auto bin = static_cast<std::size_t>(std::min(k, top));
    out.time_fraction[bin] += static_cast<double>(t) / period;
  }
  out.idle_fraction = out.time_fraction[0];
  for (std::size_t k = 2; k < out.time_fraction.size(); ++k) {
    out.multiprogrammed_fraction += out.time_fraction[k];
  }
  return out;
}

std::string JobConcurrencyResult::render() const {
  Table t({"jobs running", "% of traced time"});
  for (std::size_t k = 0; k < time_fraction.size(); ++k) {
    t.add_row({std::to_string(k), fmt(time_fraction[k] * 100.0)});
  }
  std::ostringstream out;
  out << t.render();
  out << "idle " << fmt(idle_fraction * 100.0) << "%, multiprogrammed "
      << fmt(multiprogrammed_fraction * 100.0) << "%, max "
      << max_concurrent << " concurrent jobs over "
      << util::format_duration(observed_period) << "\n";
  return out.str();
}

// ---- Figure 2 -------------------------------------------------------------

NodeCountResult analyze_node_counts(const SessionStore& store) {
  NodeCountResult out;
  std::map<cfs::JobId, std::pair<util::MicroSec, std::int32_t>> started;
  double total_node_seconds = 0.0;
  for (const auto& e : store.job_events()) {
    if (e.start) {
      ++out.jobs_by_nodes[e.nodes];
      ++out.total_jobs;
      started[e.job] = {e.time, e.nodes};
      continue;
    }
    const auto it = started.find(e.job);
    if (it == started.end()) continue;
    const double node_sec = static_cast<double>(e.time - it->second.first) /
                            util::kSecond * it->second.second;
    out.node_seconds_by_nodes[it->second.second] += node_sec;
    total_node_seconds += node_sec;
    started.erase(it);
  }
  if (out.total_jobs > 0) {
    out.single_node_job_fraction =
        static_cast<double>(out.jobs_by_nodes.count(1) ? out.jobs_by_nodes.at(1)
                                                       : 0) /
        static_cast<double>(out.total_jobs);
  }
  if (total_node_seconds > 0.0) {
    double large = 0.0;
    for (const auto& [nodes, ns] : out.node_seconds_by_nodes) {
      if (nodes >= 32) large += ns;
    }
    out.large_job_usage_share = large / total_node_seconds;
  }
  return out;
}

std::string NodeCountResult::render() const {
  Table t({"compute nodes", "jobs", "% of jobs", "% of node-time"});
  double total_ns = 0.0;
  for (const auto& [n, ns] : node_seconds_by_nodes) total_ns += ns;
  for (const auto& [n, count] : jobs_by_nodes) {
    const auto it = node_seconds_by_nodes.find(n);
    const double ns = it == node_seconds_by_nodes.end() ? 0.0 : it->second;
    t.add_row({std::to_string(n), std::to_string(count),
               fmt(100.0 * static_cast<double>(count) /
                   static_cast<double>(std::max<std::int64_t>(total_jobs, 1))),
               fmt(total_ns > 0 ? 100.0 * ns / total_ns : 0.0)});
  }
  std::ostringstream out;
  out << t.render();
  out << "single-node jobs: " << fmt(single_node_job_fraction * 100.0)
      << "% of jobs; jobs with >=32 nodes used "
      << fmt(large_job_usage_share * 100.0) << "% of node-time\n";
  return out.str();
}

// ---- Figure 3 -------------------------------------------------------------

FileSizeResult analyze_file_sizes(const SessionStore& store) {
  FileSizeResult out;
  Histogram h;
  for (const auto& s : store.sessions()) {
    if (s.total_opens == 0) continue;
    h.add(s.size_at_close);
    ++out.files;
  }
  out.cdf = Cdf(h);
  out.fraction_between_10k_1m =
      out.cdf.at(1e6) - out.cdf.at(1e4);
  out.median = static_cast<std::int64_t>(out.cdf.quantile(0.5));
  return out;
}

std::string FileSizeResult::render() const {
  Table t({"file size <=", "CDF"});
  for (double x : {1e2, 1e3, 1e4, 2.5e4, 1e5, 2.5e5, 1e6, 1e7}) {
    t.add_row({util::format_bytes(static_cast<std::int64_t>(x)),
               fmt(cdf.at(x), 3)});
  }
  std::ostringstream out;
  out << t.render();
  out << files << " files; median " << util::format_bytes(median) << "; "
      << fmt(fraction_between_10k_1m * 100.0) << "% between 10 KB and 1 MB\n";
  return out.str();
}

// ---- Figure 4 -------------------------------------------------------------

void RequestSizeAccumulator::on_record(const Record& r) {
  if (r.kind == EventKind::kRead) {
    read_count_.add(r.bytes);
    read_bytes_.add(r.bytes, static_cast<double>(r.bytes));
    ++out_.read_requests;
    out_.bytes_read += r.bytes;
  } else if (r.kind == EventKind::kWrite) {
    write_count_.add(r.bytes);
    write_bytes_.add(r.bytes, static_cast<double>(r.bytes));
    ++out_.write_requests;
    out_.bytes_written += r.bytes;
  }
}

RequestSizeResult RequestSizeAccumulator::finish() {
  constexpr std::int64_t kSmall = 4000;
  out_.small_read_fraction = read_count_.fraction_at_or_below(kSmall - 1);
  out_.small_read_data_fraction = read_bytes_.fraction_at_or_below(kSmall - 1);
  out_.small_write_fraction = write_count_.fraction_at_or_below(kSmall - 1);
  out_.small_write_data_fraction =
      write_bytes_.fraction_at_or_below(kSmall - 1);
  out_.reads_by_count = Cdf(read_count_);
  out_.reads_by_bytes = Cdf(read_bytes_);
  out_.writes_by_count = Cdf(write_count_);
  out_.writes_by_bytes = Cdf(write_bytes_);
  return std::move(out_);
}

std::string RequestSizeResult::render() const {
  Table t({"request size <=", "reads CDF", "read-bytes CDF", "writes CDF",
           "write-bytes CDF"});
  for (double x : {1e2, 4e2, 1e3, 4e3, 1.6e4, 6.4e4, 2.56e5, 1e6, 4e6}) {
    t.add_row({util::format_bytes(static_cast<std::int64_t>(x)),
               fmt(reads_by_count.at(x), 3), fmt(reads_by_bytes.at(x), 3),
               fmt(writes_by_count.at(x), 3), fmt(writes_by_bytes.at(x), 3)});
  }
  std::ostringstream out;
  out << t.render();
  out << read_requests << " reads (" << util::format_bytes(bytes_read)
      << "), " << write_requests << " writes ("
      << util::format_bytes(bytes_written) << ")\n";
  out << "reads <4000B: " << fmt(small_read_fraction * 100.0)
      << "% of requests moving " << fmt(small_read_data_fraction * 100.0)
      << "% of data; writes <4000B: " << fmt(small_write_fraction * 100.0)
      << "% moving " << fmt(small_write_data_fraction * 100.0) << "%\n";
  return out.str();
}

// ---- Figures 5/6 -----------------------------------------------------------

namespace {

template <typename Fraction>
void fill_class(const SessionStore& store, AccessClass cls,
                SequentialityResult::PerClass& out, Fraction fraction,
                util::Cdf SequentialityResult::PerClass::* which_cdf,
                double SequentialityResult::PerClass::* full,
                double SequentialityResult::PerClass::* zero) {
  std::vector<double> fractions;
  for (const auto& s : store.sessions()) {
    if (s.access_class() != cls) continue;
    std::uint64_t total = 0, good = 0, requests = 0;
    for (const auto& [node, ns] : s.per_node) {
      requests += ns.requests;
      if (ns.requests > 1) {
        total += ns.requests - 1;
        good += fraction(ns);
      }
    }
    if (requests < 2 || total == 0) continue;  // single-request files excluded
    fractions.push_back(static_cast<double>(good) /
                        static_cast<double>(total));
  }
  out.files = static_cast<std::int64_t>(fractions.size());
  double at_one = 0, at_zero = 0;
  for (double f : fractions) {
    if (f >= 1.0) ++at_one;
    if (f <= 0.0) ++at_zero;
  }
  if (!fractions.empty()) {
    (out.*full) = at_one / static_cast<double>(fractions.size());
    (out.*zero) = at_zero / static_cast<double>(fractions.size());
  }
  (out.*which_cdf) = util::Cdf::from_samples(std::move(fractions));
}

void fill_both(const SessionStore& store, AccessClass cls,
               SequentialityResult::PerClass& out) {
  fill_class(
      store, cls, out,
      [](const NodeAccessStats& ns) { return ns.sequential; },
      &SequentialityResult::PerClass::sequential_cdf,
      &SequentialityResult::PerClass::fully_sequential,
      &SequentialityResult::PerClass::zero_sequential);
  fill_class(
      store, cls, out,
      [](const NodeAccessStats& ns) { return ns.consecutive; },
      &SequentialityResult::PerClass::consecutive_cdf,
      &SequentialityResult::PerClass::fully_consecutive,
      &SequentialityResult::PerClass::zero_consecutive);
}

}  // namespace

SequentialityResult analyze_sequentiality(const SessionStore& store) {
  SequentialityResult out;
  fill_both(store, AccessClass::kReadOnly, out.read_only);
  fill_both(store, AccessClass::kWriteOnly, out.write_only);
  fill_both(store, AccessClass::kReadWrite, out.read_write);
  return out;
}

std::string SequentialityResult::render() const {
  Table t({"class", "files", "100% seq", "0% seq", "100% consec",
           "0% consec"});
  const auto row = [&](const char* name, const PerClass& c) {
    t.add_row({name, std::to_string(c.files),
               fmt(c.fully_sequential * 100.0), fmt(c.zero_sequential * 100.0),
               fmt(c.fully_consecutive * 100.0),
               fmt(c.zero_consecutive * 100.0)});
  };
  row("read-only", read_only);
  row("write-only", write_only);
  row("read-write", read_write);
  return t.render();
}

// ---- Figure 7 --------------------------------------------------------------

SharingResult analyze_sharing(const SessionStore& store,
                              std::int64_t block_size) {
  SharingResult out;
  std::vector<double> byte_fracs[3], block_fracs[3];
  for (const auto& s : store.sessions()) {
    if (s.max_concurrent_opens < 2) continue;
    const AccessClass cls = s.access_class();
    int idx;
    switch (cls) {
      case AccessClass::kReadOnly: idx = 0; break;
      case AccessClass::kWriteOnly: idx = 1; break;
      case AccessClass::kReadWrite: idx = 2; break;
      default: continue;
    }
    std::vector<const std::vector<ByteRange>*> covs;
    for (const auto& [node, ns] : s.per_node) {
      if (!ns.coverage.empty()) covs.push_back(&ns.coverage);
    }
    if (covs.size() < 2) continue;
    const std::int64_t any = bytes_covered_by_at_least(covs, 1);
    if (any == 0) continue;
    const std::int64_t shared = bytes_covered_by_at_least(covs, 2);
    byte_fracs[idx].push_back(static_cast<double>(shared) /
                              static_cast<double>(any));

    // Block granularity: round every range out to block boundaries.
    std::vector<std::vector<ByteRange>> block_cov(covs.size());
    for (std::size_t i = 0; i < covs.size(); ++i) {
      for (const auto& r : *covs[i]) {
        merge_range(block_cov[i], {r.begin / block_size,
                                   (r.end + block_size - 1) / block_size});
      }
    }
    std::vector<const std::vector<ByteRange>*> bc;
    bc.reserve(block_cov.size());
    for (const auto& c : block_cov) bc.push_back(&c);
    const std::int64_t any_b = bytes_covered_by_at_least(bc, 1);
    const std::int64_t shared_b = bytes_covered_by_at_least(bc, 2);
    block_fracs[idx].push_back(
        any_b > 0 ? static_cast<double>(shared_b) / static_cast<double>(any_b)
                  : 0.0);
  }

  const auto fill = [](SharingResult::PerClass& c, std::vector<double> bytes,
                       std::vector<double> blocks) {
    c.files = static_cast<std::int64_t>(bytes.size());
    if (!bytes.empty()) {
      double full = 0, none = 0, full_b = 0;
      for (double f : bytes) {
        if (f >= 1.0 - 1e-9) ++full;
        if (f <= 1e-9) ++none;
      }
      for (double f : blocks) {
        if (f >= 1.0 - 1e-9) ++full_b;
      }
      c.fully_byte_shared = full / static_cast<double>(bytes.size());
      c.no_bytes_shared = none / static_cast<double>(bytes.size());
      c.fully_block_shared =
          blocks.empty() ? 0.0 : full_b / static_cast<double>(blocks.size());
    }
    c.byte_shared_cdf = util::Cdf::from_samples(std::move(bytes));
    c.block_shared_cdf = util::Cdf::from_samples(std::move(blocks));
  };
  fill(out.read_only, std::move(byte_fracs[0]), std::move(block_fracs[0]));
  fill(out.write_only, std::move(byte_fracs[1]), std::move(block_fracs[1]));
  fill(out.read_write, std::move(byte_fracs[2]), std::move(block_fracs[2]));
  return out;
}

std::string SharingResult::render() const {
  Table t({"class", "files", "100% byte-shared", "0% byte-shared",
           "100% block-shared"});
  const auto row = [&](const char* name, const PerClass& c) {
    t.add_row({name, std::to_string(c.files), fmt(c.fully_byte_shared * 100.0),
               fmt(c.no_bytes_shared * 100.0),
               fmt(c.fully_block_shared * 100.0)});
  };
  row("read-only", read_only);
  row("write-only", write_only);
  row("read-write", read_write);
  return t.render();
}

// ---- Table 1 ----------------------------------------------------------------

FilesPerJobResult analyze_files_per_job(const SessionStore& store) {
  FilesPerJobResult out;
  std::map<cfs::JobId, std::int64_t> files;
  for (const auto& s : store.sessions()) {
    if (s.job < 0) continue;
    ++files[s.job];
  }
  out.traced_jobs_with_files = static_cast<std::int64_t>(files.size());
  for (const auto& [job, n] : files) {
    out.max_files_one_job = std::max(out.max_files_one_job, n);
    ++out.buckets[static_cast<std::size_t>(std::min<std::int64_t>(n, 5) - 1)];
  }
  return out;
}

std::string FilesPerJobResult::render() const {
  Table t({"files opened", "jobs"});
  static constexpr const char* kNames[] = {"1", "2", "3", "4", "5+"};
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    t.add_row({kNames[i], std::to_string(buckets[i])});
  }
  std::ostringstream out;
  out << t.render();
  out << traced_jobs_with_files << " traced jobs opened files; max "
      << max_files_one_job << " files in one job\n";
  return out.str();
}

// ---- Table 2 ------------------------------------------------------------------

IntervalResult analyze_intervals(const SessionStore& store) {
  IntervalResult out;
  std::int64_t one_interval = 0, one_interval_zero = 0;
  for (const auto& s : store.sessions()) {
    if (s.total_opens == 0) continue;
    if (s.access_class() == AccessClass::kUntouched) continue;
    ++out.total_files;
    const auto n = s.interval_sizes.size();
    ++out.buckets[std::min<std::size_t>(n, 4)];
    if (n == 1) {
      ++one_interval;
      if (*s.interval_sizes.begin() == 0) ++one_interval_zero;
    }
  }
  if (one_interval > 0) {
    out.one_interval_consecutive_share =
        static_cast<double>(one_interval_zero) /
        static_cast<double>(one_interval);
  }
  return out;
}

std::string IntervalResult::render() const {
  Table t({"distinct intervals", "files", "% of files"});
  static constexpr const char* kNames[] = {"0", "1", "2", "3", "4+"};
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    t.add_row({kNames[i], std::to_string(buckets[i]),
               fmt(total_files > 0 ? 100.0 * static_cast<double>(buckets[i]) /
                                         static_cast<double>(total_files)
                                   : 0.0)});
  }
  std::ostringstream out;
  out << t.render();
  out << fmt(one_interval_consecutive_share * 100.0)
      << "% of 1-interval files were consecutive (interval 0)\n";
  return out.str();
}

// ---- Table 3 -------------------------------------------------------------------

RequestRegularityResult analyze_request_regularity(const SessionStore& store) {
  RequestRegularityResult out;
  for (const auto& s : store.sessions()) {
    if (s.total_opens == 0) continue;
    ++out.total_files;
    ++out.buckets[std::min<std::size_t>(s.request_sizes.size(), 4)];
  }
  if (out.total_files > 0) {
    out.one_or_two_sizes_share =
        static_cast<double>(out.buckets[1] + out.buckets[2]) /
        static_cast<double>(out.total_files);
  }
  return out;
}

std::string RequestRegularityResult::render() const {
  Table t({"distinct request sizes", "files", "% of files"});
  static constexpr const char* kNames[] = {"0", "1", "2", "3", "4+"};
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    t.add_row({kNames[i], std::to_string(buckets[i]),
               fmt(total_files > 0 ? 100.0 * static_cast<double>(buckets[i]) /
                                         static_cast<double>(total_files)
                                   : 0.0)});
  }
  std::ostringstream out;
  out << t.render();
  out << fmt(one_or_two_sizes_share * 100.0)
      << "% of files used only one or two request sizes\n";
  return out.str();
}

// ---- §4.2 -----------------------------------------------------------------------

FilePopulationResult analyze_file_population(const SessionStore& store) {
  FilePopulationResult out;
  double read_bytes = 0, write_bytes = 0;
  for (const auto& s : store.sessions()) {
    if (s.total_opens == 0) continue;
    ++out.sessions;
    switch (s.access_class()) {
      case AccessClass::kReadOnly:
        ++out.read_only;
        read_bytes += static_cast<double>(s.bytes_read);
        break;
      case AccessClass::kWriteOnly:
        ++out.write_only;
        write_bytes += static_cast<double>(s.bytes_written);
        break;
      case AccessClass::kReadWrite:
        ++out.read_write;
        read_bytes += static_cast<double>(s.bytes_read);
        write_bytes += static_cast<double>(s.bytes_written);
        break;
      case AccessClass::kUntouched:
        ++out.untouched;
        break;
    }
    if (s.temporary()) ++out.temporary;
  }
  if (out.sessions > 0) {
    out.temporary_fraction = static_cast<double>(out.temporary) /
                             static_cast<double>(out.sessions);
  }
  if (out.read_only + out.read_write > 0) {
    out.mean_bytes_read_per_read_file =
        read_bytes / static_cast<double>(out.read_only + out.read_write);
  }
  if (out.write_only + out.read_write > 0) {
    out.mean_bytes_written_per_write_file =
        write_bytes / static_cast<double>(out.write_only + out.read_write);
  }
  return out;
}

std::string FilePopulationResult::render() const {
  Table t({"category", "files", "% of files"});
  const auto pct = [&](std::int64_t n) {
    return fmt(sessions > 0 ? 100.0 * static_cast<double>(n) /
                                  static_cast<double>(sessions)
                            : 0.0);
  };
  t.add_row({"total opened", std::to_string(sessions), "100.0"});
  t.add_row({"write-only", std::to_string(write_only), pct(write_only)});
  t.add_row({"read-only", std::to_string(read_only), pct(read_only)});
  t.add_row({"read-write", std::to_string(read_write), pct(read_write)});
  t.add_row({"untouched", std::to_string(untouched), pct(untouched)});
  t.add_row({"temporary", std::to_string(temporary), pct(temporary)});
  std::ostringstream out;
  out << t.render();
  out << "mean bytes read per read file: "
      << util::format_bytes(
             static_cast<std::int64_t>(mean_bytes_read_per_read_file))
      << "; mean bytes written per write file: "
      << util::format_bytes(
             static_cast<std::int64_t>(mean_bytes_written_per_write_file))
      << "\n";
  return out.str();
}

// ---- §4.6 ------------------------------------------------------------------------

ModeUsageResult analyze_mode_usage(const SessionStore& store) {
  ModeUsageResult out;
  std::int64_t total = 0;
  for (const auto& s : store.sessions()) {
    if (s.total_opens == 0) continue;
    ++out.sessions_by_mode[static_cast<std::size_t>(s.mode)];
    ++total;
  }
  if (total > 0) {
    out.mode0_fraction = static_cast<double>(out.sessions_by_mode[0]) /
                         static_cast<double>(total);
  }
  return out;
}

std::string ModeUsageResult::render() const {
  Table t({"I/O mode", "files"});
  for (std::size_t m = 0; m < sessions_by_mode.size(); ++m) {
    t.add_row({"mode " + std::to_string(m),
               std::to_string(sessions_by_mode[m])});
  }
  std::ostringstream out;
  out << t.render();
  out << fmt(mode0_fraction * 100.0) << "% of files used mode 0\n";
  return out.str();
}

}  // namespace charisma::analysis
