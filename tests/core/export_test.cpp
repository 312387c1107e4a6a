#include "core/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "../cache/replay_testing.hpp"
#include "../trace/study_records.hpp"
#include "analysis/figures.hpp"
#include "cache/simulators.hpp"
#include "core/stream_study.hpp"

namespace charisma::core {
namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A CDF series in the exported TSV layout.
std::string cdf_tsv(const util::Cdf& cdf) {
  std::ostringstream out;
  out << "# x\tF(x)\n";
  for (const auto& p : cdf.points()) {
    out << p.x << '\t' << p.cumulative_fraction << '\n';
  }
  return out.str();
}

/// A study at `scale` and `seed` with everything else at the defaults.
StreamedStudyOutput study_at(double scale, std::uint64_t seed) {
  StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return run_streamed_study(config);
}

TEST(ExportFigures, WritesEverySeries) {
  const std::string dir = ::testing::TempDir() + "charisma_export";
  std::filesystem::create_directories(dir);
  const auto result = export_figures(study_at(0.02, 33), dir);
  EXPECT_GE(result.files_written, 14);
  for (const char* name :
       {"fig1.tsv", "fig2.tsv", "fig3.tsv", "fig4.tsv", "fig5_read_only.tsv",
        "fig6_write_only.tsv", "fig7_read_bytes.tsv", "fig8_1buf.tsv",
        "fig9.tsv", "iorate.tsv", "plots.gp"}) {
    const std::filesystem::path p = std::filesystem::path(dir) / name;
    EXPECT_TRUE(std::filesystem::exists(p)) << name;
    EXPECT_GT(std::filesystem::file_size(p), 10u) << name;
  }
  // TSVs start with a header comment and have numeric rows.
  std::ifstream f(std::filesystem::path(dir) / "fig4.tsv");
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line[0], '#');
  std::getline(f, line);
  EXPECT_NE(line.find('\t'), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ExportFigures, CacheSeriesMatchPerConfigReplays) {
  // Every row of the three cache-figure files, rebuilt from one per-config
  // simulator run per point over the same study's records.
  auto study = trace::fixtures::collect_study_at_scale(0.02, 33);
  const cache::ReplayLog ops = cache::fixtures::log_of(
      study.records, study.out.sessions.read_only_sessions());
  const auto fig8 = [&](std::size_t buffers) {
    cache::ComputeCacheConfig cfg;
    cfg.buffers_per_node = buffers;
    return cdf_tsv(cache::simulate_compute_cache(ops, cfg).hit_rate_cdf);
  };
  std::ostringstream fig9;
  fig9 << "# buffers\tlru\tfifo\n";
  for (const double b : analysis::fig9_buffer_grid()) {
    cache::IoNodeSimConfig cfg;
    cfg.total_buffers = static_cast<std::size_t>(b);
    cfg.policy = cache::Policy::kLru;
    const double lru = cache::simulate_io_cache(ops, cfg).hit_rate;
    cfg.policy = cache::Policy::kFifo;
    const double fifo = cache::simulate_io_cache(ops, cfg).hit_rate;
    fig9 << cfg.total_buffers << '\t' << lru << '\t' << fifo << '\n';
  }

  const std::string dir = ::testing::TempDir() + "charisma_export_cache";
  std::filesystem::create_directories(dir);
  (void)export_figures(std::move(study.out), dir);
  const std::filesystem::path d(dir);
  EXPECT_EQ(slurp(d / "fig8_1buf.tsv"), fig8(1));
  EXPECT_EQ(slurp(d / "fig8_50buf.tsv"), fig8(50));
  EXPECT_EQ(slurp(d / "fig9.tsv"), fig9.str());
  std::filesystem::remove_all(dir);
}

TEST(ExportFigures, FailsCleanlyOnBadDirectory) {
  EXPECT_THROW(export_figures(study_at(0.01, 34), "/nonexistent-dir/nope"),
               std::runtime_error);
}

}  // namespace
}  // namespace charisma::core
