#include "analysis/figures.hpp"

#include <map>

#include "analysis/analyzers.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace charisma::analysis {

const FigureCurve* FigureSet::find(std::string_view name) const noexcept {
  for (const auto& c : curves) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void FigureSet::add(std::string name, std::vector<double> xs,
                    std::vector<double> ys) {
  CHECK(xs.size() == ys.size(), "figure ", name, ": ", xs.size(), " xs vs ",
        ys.size(), " ys");
  curves.push_back({std::move(name), std::move(xs), std::move(ys)});
}

std::vector<double> fraction_grid() {
  std::vector<double> xs;
  xs.reserve(21);
  for (int i = 0; i <= 20; ++i) xs.push_back(static_cast<double>(i) / 20.0);
  return xs;
}

std::vector<double> request_size_grid() {
  // log_spaced stops at the last exponent <= hi; append the endpoint so the
  // grid covers the full 32 MB axis of the paper's Figure 4.
  std::vector<double> xs = util::log_spaced(64, 3.3e7, 6);
  if (xs.empty() || xs.back() < 3.3e7) xs.push_back(3.3e7);
  return xs;
}

std::vector<double> fig9_buffer_grid() {
  return {250, 500, 1000, 2000, 4000, 8000, 16000};
}

namespace {

/// Samples `cdf` at every grid position.  An empty CDF yields all-zero ys
/// (Cdf::at returns 0), keeping "no observations" distinct from NaN.
std::vector<double> sample(const util::Cdf& cdf,
                           const std::vector<double>& xs) {
  std::vector<double> ys;
  ys.reserve(xs.size());
  for (double x : xs) ys.push_back(cdf.at(x));
  return ys;
}

/// Bucket counts -> fraction of `total` per bucket (0s when total is 0).
template <std::size_t N>
std::vector<double> bucket_fractions(const std::array<std::int64_t, N>& counts,
                                     std::int64_t total) {
  std::vector<double> ys;
  ys.reserve(N);
  for (const std::int64_t c : counts) {
    ys.push_back(total > 0
                     ? static_cast<double>(c) / static_cast<double>(total)
                     : 0.0);
  }
  return ys;
}

std::vector<double> index_grid(std::size_t n, double first) {
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(first + static_cast<double>(i));
  }
  return xs;
}

}  // namespace

FigureSet collect_trace_figures(const SessionStore& store,
                                const RequestSizeResult& request_sizes,
                                std::int64_t block_size) {
  FigureSet set;
  const auto sizes = request_size_grid();
  const auto fracs = fraction_grid();

  {  // Figure 4: request sizes, by request count and weighted by bytes.
    const auto& r = request_sizes;
    set.add("fig4_reads", sizes, sample(r.reads_by_count, sizes));
    set.add("fig4_read_bytes", sizes, sample(r.reads_by_bytes, sizes));
    set.add("fig4_writes", sizes, sample(r.writes_by_count, sizes));
    set.add("fig4_write_bytes", sizes, sample(r.writes_by_bytes, sizes));
  }
  {  // Figures 5/6: per-class sequential / consecutive fractions.
    const auto r = analyze_sequentiality(store);
    set.add("fig5_read_only", fracs, sample(r.read_only.sequential_cdf, fracs));
    set.add("fig5_write_only", fracs,
            sample(r.write_only.sequential_cdf, fracs));
    set.add("fig5_read_write", fracs,
            sample(r.read_write.sequential_cdf, fracs));
    set.add("fig6_read_only", fracs,
            sample(r.read_only.consecutive_cdf, fracs));
    set.add("fig6_write_only", fracs,
            sample(r.write_only.consecutive_cdf, fracs));
  }
  {  // Figure 7: sharing among concurrently open files.
    const auto r = analyze_sharing(store, block_size);
    set.add("fig7_read_bytes", fracs,
            sample(r.read_only.byte_shared_cdf, fracs));
    set.add("fig7_read_blocks", fracs,
            sample(r.read_only.block_shared_cdf, fracs));
    set.add("fig7_write_bytes", fracs,
            sample(r.write_only.byte_shared_cdf, fracs));
  }
  {  // Tables 1-3: bucket fractions on index grids.
    const auto t1 = analyze_files_per_job(store);
    set.add("table1_files_per_job", index_grid(t1.buckets.size(), 1),
            bucket_fractions(t1.buckets, t1.traced_jobs_with_files));
    const auto t2 = analyze_intervals(store);
    set.add("table2_interval_sizes", index_grid(t2.buckets.size(), 0),
            bucket_fractions(t2.buckets, t2.total_files));
    const auto t3 = analyze_request_regularity(store);
    set.add("table3_request_sizes", index_grid(t3.buckets.size(), 0),
            bucket_fractions(t3.buckets, t3.total_files));
  }
  return set;
}

std::vector<FigureEnvelope> fold_envelopes(
    const std::vector<const FigureSet*>& sets) {
  // name -> position in `out`; the map is only a lookup index, iteration
  // (and therefore output order) follows first appearance in input order.
  std::vector<FigureEnvelope> out;
  std::map<std::string, std::size_t, std::less<>> index;
  std::vector<std::vector<util::Summary>> columns;  // parallel to `out`

  for (const FigureSet* set : sets) {
    if (set == nullptr) continue;
    for (const auto& curve : set->curves) {
      auto it = index.find(curve.name);
      if (it == index.end()) {
        it = index.emplace(curve.name, out.size()).first;
        FigureEnvelope env;
        env.name = curve.name;
        env.xs = curve.xs;
        out.push_back(std::move(env));
        columns.emplace_back(curve.xs.size());
      }
      FigureEnvelope& env = out[it->second];
      CHECK(curve.xs == env.xs, "figure ", curve.name,
            ": replications disagree on the sample grid");
      auto& cols = columns[it->second];
      for (std::size_t i = 0; i < curve.ys.size(); ++i) {
        cols[i].add(curve.ys[i]);
      }
      ++env.replications;
    }
  }

  for (std::size_t f = 0; f < out.size(); ++f) {
    FigureEnvelope& env = out[f];
    env.mean.reserve(env.xs.size());
    env.min.reserve(env.xs.size());
    env.max.reserve(env.xs.size());
    env.ci95_half.reserve(env.xs.size());
    for (const util::Summary& s : columns[f]) {
      env.mean.push_back(s.mean());
      env.min.push_back(s.min());
      env.max.push_back(s.max());
      env.ci95_half.push_back(util::ci95_half_width(s));
    }
  }
  return out;
}

}  // namespace charisma::analysis
