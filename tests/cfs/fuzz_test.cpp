// Model-based fuzzing of the CFS metadata layer: random mode-0 operation
// sequences are checked against a trivial reference model of per-node file
// pointers and file sizes.
#include <gtest/gtest.h>

#include <map>

#include "cfs/file_system.hpp"
#include "util/rng.hpp"

namespace charisma::cfs {
namespace {

struct RefFile {
  std::int64_t size = 0;
};
struct RefHandle {
  std::int64_t pointer = 0;
};

class FuzzCase : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCase, Mode0MatchesReferenceModel) {
  util::Rng rng(GetParam());
  FileSystemParams params;
  params.io_nodes = 3;
  params.block_size = 512;
  FileSystem fs(params);

  std::map<std::string, RefFile> ref_files;
  // (job, node, path) -> pointer
  std::map<std::tuple<JobId, NodeId, std::string>, RefHandle> ref_handles;
  std::map<std::string, FileId> ids;

  const auto some_path = [&] {
    return "f" + std::to_string(rng.uniform(6));
  };
  const auto some_job = [&] { return static_cast<JobId>(rng.uniform(3)); };
  const auto some_node = [&] { return static_cast<NodeId>(rng.uniform(4)); };

  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.uniform(5);
    const JobId job = some_job();
    const NodeId node = some_node();
    const std::string path = some_path();
    const auto key = std::make_tuple(job, node, path);

    switch (op) {
      case 0: {  // open (create|read|write)
        const auto r = fs.open(job, node, path, kRead | kWrite | kCreate,
                               IoMode::kIndependent, 0);
        const bool ref_ok = ref_handles.count(key) == 0;
        ASSERT_EQ(r.ok, ref_ok) << to_string(r.error);
        if (r.ok) {
          ids[path] = r.file;
          ASSERT_EQ(r.created, ref_files.count(path) == 0);
          ref_files.try_emplace(path);
          ref_handles[key] = RefHandle{};
        }
        break;
      }
      case 1: {  // write
        const auto it = ref_handles.find(key);
        const std::int64_t bytes = rng.uniform_range(0, 2000);
        const auto r = fs.reserve_write(job, node, ids.count(path) ? ids[path]
                                                                   : kNoFile,
                                        bytes, 0);
        if (it == ref_handles.end() || ids.count(path) == 0) {
          ASSERT_FALSE(r.ok);
          break;
        }
        ASSERT_TRUE(r.ok) << to_string(r.error);
        ASSERT_EQ(r.offset, it->second.pointer);
        ASSERT_EQ(r.bytes, bytes);
        it->second.pointer += bytes;
        auto& f = ref_files[path];
        const bool extends = it->second.pointer > f.size && bytes > 0;
        ASSERT_EQ(r.extends_file, extends);
        f.size = std::max(f.size, it->second.pointer);
        break;
      }
      case 2: {  // read
        const auto it = ref_handles.find(key);
        const std::int64_t bytes = rng.uniform_range(0, 2000);
        const auto r = fs.reserve_read(job, node,
                                       ids.count(path) ? ids[path] : kNoFile,
                                       bytes, 0);
        if (it == ref_handles.end() || ids.count(path) == 0) {
          ASSERT_FALSE(r.ok);
          break;
        }
        ASSERT_TRUE(r.ok) << to_string(r.error);
        ASSERT_EQ(r.offset, it->second.pointer);
        const std::int64_t expect = std::clamp<std::int64_t>(
            ref_files[path].size - it->second.pointer, 0, bytes);
        ASSERT_EQ(r.bytes, expect);
        it->second.pointer += expect;
        break;
      }
      case 3: {  // seek (absolute)
        const auto it = ref_handles.find(key);
        const std::int64_t target = rng.uniform_range(0, 5000);
        const auto r = fs.seek(job, node,
                               ids.count(path) ? ids[path] : kNoFile, target,
                               Whence::kSet);
        if (it == ref_handles.end() || ids.count(path) == 0) {
          ASSERT_EQ(r, std::nullopt);
          break;
        }
        ASSERT_EQ(r, target);
        it->second.pointer = target;
        break;
      }
      case 4: {  // close
        const auto it = ref_handles.find(key);
        const auto r = fs.close(job, node,
                                ids.count(path) ? ids[path] : kNoFile);
        if (it == ref_handles.end() || ids.count(path) == 0) {
          ASSERT_EQ(r, std::nullopt);
          break;
        }
        ASSERT_EQ(r, ref_files[path].size);
        ref_handles.erase(it);
        break;
      }
    }
  }

  // Final invariant: every surviving file's stats agree with the model.
  for (const auto& [path, f] : ref_files) {
    const auto stats = fs.stats(ids.at(path));
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->size, f.size) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCase,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace charisma::cfs
