// A deterministic mutation fuzzer for the chwl reader.  Seeded byte flips
// and digit substitutions of the committed fixtures must each end one of
// two ways: load_source throws a typed ReplayFormatError, or the mutant
// loads and every rank of every job drains through the Source seam.  Some
// of the mutants that load also run a full study, which must complete.
// Any other end — another exception, a crash, a sanitizer report — fails.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/stream_study.hpp"
#include "drained_ops.hpp"
#include "util/rng.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

namespace charisma::workload {
namespace {

/// The fixtures the mutants start from.
std::vector<std::string> fixture_logs() {
  std::vector<std::string> logs;
  for (const char* name : {"tiny.chwl", "far_seek.chwl"}) {
    std::ifstream in(std::string(CHARISMA_WORKLOAD_TEST_DATA_DIR "/") + name,
                     std::ios::binary);
    logs.emplace_back(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    EXPECT_FALSE(logs.back().empty()) << "cannot read " << name;
  }
  return logs;
}

/// 1-4 mutations of `log`: a flipped bit anywhere, or a digit replaced by
/// another digit.
std::string mutate(const std::string& log, util::Rng& rng) {
  std::string out = log;
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] >= '0' && out[i] <= '9') digits.push_back(i);
  }
  const int mutations = 1 + static_cast<int>(rng.uniform(4));
  for (int m = 0; m < mutations; ++m) {
    if (rng.uniform(2) == 0 || digits.empty()) {
      const auto pos = static_cast<std::size_t>(rng.uniform(out.size()));
      out[pos] = static_cast<char>(static_cast<unsigned char>(out[pos]) ^
                                   (1u << rng.uniform(8)));
    } else {
      const std::size_t pos = digits[rng.uniform(digits.size())];
      out[pos] = static_cast<char>('0' + rng.uniform(10));
    }
  }
  return out;
}

/// A per-process mutant path: ctest runs each test as its own process.
std::string mutant_path() {
  return ::testing::TempDir() + "charisma_fuzz_" + std::to_string(::getpid()) +
         ".chwl";
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ReplayFuzz, MutantsAreRejectedOrDrainEveryRank) {
  const std::vector<std::string> logs = fixture_logs();
  const std::string path = mutant_path();
  const SourceSpec spec{"replay", path};
  const WorkloadConfig config;
  util::Rng rng(0xc4e1f022);
  constexpr int kTrials = 3000;
  int rejected = 0;
  int drained = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string mutant =
        mutate(logs[static_cast<std::size_t>(trial) % logs.size()], rng);
    write_file(path, mutant);
    try {
      (void)load_source(spec, config);
    } catch (const ReplayFormatError&) {
      ++rejected;
      continue;
    }
    EXPECT_NO_THROW((void)drained_ops(spec, config, 128))
        << "trial " << trial << " loaded but did not drain:\n"
        << mutant;
    ++drained;
  }
  std::remove(path.c_str());
  EXPECT_EQ(rejected + drained, kTrials);
  // Both ends are exercised, or the fuzzer proves nothing.
  EXPECT_GT(rejected, kTrials / 10);
  EXPECT_GT(drained, kTrials / 10);
}

TEST(ReplayFuzz, LoadedMutantsRunFullStudies) {
  const std::vector<std::string> logs = fixture_logs();
  const std::string path = mutant_path();
  util::Rng rng(0x5eed1994);
  core::StudyConfig config;
  config.source = SourceSpec{"replay", path};
  constexpr int kTrials = 600;
  int rejected = 0;
  int completed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string mutant =
        mutate(logs[static_cast<std::size_t>(trial) % logs.size()], rng);
    write_file(path, mutant);
    try {
      const core::StreamedStudyOutput out = core::run_streamed_study(config);
      EXPECT_EQ(out.streamed_records, out.records) << "trial " << trial;
      ++completed;
    } catch (const ReplayFormatError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " ended with " << e.what()
                    << ":\n"
                    << mutant;
    }
  }
  std::remove(path.c_str());
  EXPECT_EQ(rejected + completed, kTrials);
  EXPECT_GT(completed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace charisma::workload
