// Golden-fixture and malformed-input tests for the chwl replay reader.
//
// The committed fixtures under tests/workload/data/ are the parser's
// contract: tiny.chwl pins the exact op streams a well-formed log compiles
// to; torn.chwl and garbage.chwl prove that a torn log and a bad byte each
// cost a typed ReplayFormatError, never a crash, a salvaged prefix or an
// unbounded allocation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cfs/types.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

namespace charisma::workload {
namespace {

std::string fixture(const char* name) {
  return std::string(CHARISMA_WORKLOAD_TEST_DATA_DIR "/") + name;
}

/// Writes `text` (verbatim — no newline appended) as a temp log.
class TempLog {
 public:
  // pid + counter: ctest runs each test as its own concurrent process, so
  // the name must be unique across processes, not just within one.
  explicit TempLog(const std::string& text)
      : path_(::testing::TempDir() + "charisma_replay_" +
              std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
              ".chwl") {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ~TempLog() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TempLog::counter_ = 0;

TEST(ReplayReader, TinyFixtureMetadata) {
  WorkloadConfig config;
  const ReplayLog log = ReplayLog::load(fixture("tiny.chwl"), config);
  const GeneratedWorkload& w = log.workload();
  EXPECT_EQ(w.window, 60000000);
  ASSERT_EQ(w.inputs.size(), 1u);
  EXPECT_EQ(w.inputs[0].bytes, 4096);
  EXPECT_EQ(w.inputs[0].path, "in/seed.dat");
  ASSERT_EQ(w.jobs.size(), 2u);
  EXPECT_EQ(w.jobs[0].job, 7);
  EXPECT_EQ(w.jobs[0].arrival, 1000);
  EXPECT_EQ(w.jobs[0].nodes, 2);
  EXPECT_TRUE(w.jobs[0].traced);
  EXPECT_EQ(w.jobs[0].archetype, Archetype::kRwUpdate);
  EXPECT_EQ(w.jobs[1].job, 9);
  EXPECT_EQ(w.jobs[1].arrival, 5000);
  EXPECT_EQ(w.jobs[1].nodes, 1);
  EXPECT_FALSE(w.jobs[1].traced);
  EXPECT_EQ(w.jobs[1].archetype, Archetype::kPostprocess);
}

TEST(ReplayReader, TinyFixtureGoldenOpStreams) {
  const ReplayLog log = ReplayLog::load(fixture("tiny.chwl"), {});
  const JobScripts first = log.compile_job(0);
  // Paths intern in file order: rank 0 opens out/a.dat before rank 1
  // touches the input.
  ASSERT_EQ(first.paths.size(), 2u);
  EXPECT_EQ(first.paths[0], "out/a.dat");
  EXPECT_EQ(first.paths[1], "in/seed.dat");
  ASSERT_EQ(first.nodes.size(), 2u);

  const std::vector<Op>& r0 = first.nodes[0].ops;
  ASSERT_EQ(r0.size(), 11u);
  EXPECT_EQ(r0[0].kind, OpKind::kThink);
  EXPECT_EQ(r0[0].think, 250);
  EXPECT_EQ(r0[1].kind, OpKind::kOpen);
  EXPECT_EQ(r0[1].flags, cfs::kRead | cfs::kWrite | cfs::kCreate);
  EXPECT_EQ(r0[1].mode, cfs::IoMode::kIndependent);
  EXPECT_EQ(r0[1].path, 0);
  EXPECT_EQ(r0[2].kind, OpKind::kWrite);
  EXPECT_EQ(r0[2].bytes, 1024);
  EXPECT_EQ(r0[3].kind, OpKind::kBarrier);
  EXPECT_EQ(r0[4].kind, OpKind::kSeek);
  EXPECT_EQ(r0[4].offset, 2048);
  EXPECT_EQ(r0[4].whence, cfs::Whence::kSet);
  EXPECT_EQ(r0[5].offset, -8);
  EXPECT_EQ(r0[5].whence, cfs::Whence::kCurrent);
  EXPECT_EQ(r0[6].whence, cfs::Whence::kEnd);
  EXPECT_EQ(r0[7].whence, cfs::Whence::kSet);
  EXPECT_EQ(r0[8].kind, OpKind::kRead);
  EXPECT_EQ(r0[8].bytes, 8);
  EXPECT_EQ(r0[9].kind, OpKind::kClose);
  EXPECT_EQ(r0[9].think, 20);
  EXPECT_EQ(r0[10].kind, OpKind::kUnlink);
  EXPECT_EQ(r0[10].path, 0);

  const std::vector<Op>& r1 = first.nodes[1].ops;
  ASSERT_EQ(r1.size(), 4u);
  EXPECT_EQ(r1[0].kind, OpKind::kOpen);
  EXPECT_EQ(r1[0].flags, cfs::kRead);
  EXPECT_EQ(r1[0].think, 10);
  EXPECT_EQ(r1[0].path, 1);
  EXPECT_EQ(r1[1].kind, OpKind::kRead);
  EXPECT_EQ(r1[1].bytes, 512);
  EXPECT_EQ(r1[2].kind, OpKind::kBarrier);
  EXPECT_EQ(r1[2].think, 5);
  EXPECT_EQ(r1[3].kind, OpKind::kClose);

  const JobScripts second = log.compile_job(1);
  ASSERT_EQ(second.paths.size(), 1u);
  EXPECT_EQ(second.paths[0], "tmp/scratch");
  ASSERT_EQ(second.nodes.size(), 1u);
  const std::vector<Op>& s0 = second.nodes[0].ops;
  ASSERT_EQ(s0.size(), 3u);
  EXPECT_EQ(s0[0].kind, OpKind::kOpen);
  EXPECT_EQ(s0[1].kind, OpKind::kWrite);
  EXPECT_EQ(s0[1].bytes, 64);
  EXPECT_EQ(s0[1].think, 1);
  EXPECT_EQ(s0[2].kind, OpKind::kClose);
}

TEST(ReplayReader, TinyFixtureLoadsThroughTheSourceSeam) {
  SourceSpec spec;
  spec.method = "replay";
  spec.path = fixture("tiny.chwl");
  const auto source = load_source(spec, {});
  ASSERT_EQ(source->workload().jobs.size(), 2u);
  // Pull rank 1 of job 0 through the Source API: the stream must end with
  // kEnd and stay kEnd on further pulls.
  (void)source->start_job(0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(source->next(0, 1).kind, OpKind::kEnd) << "op " << i;
  }
  EXPECT_EQ(source->next(0, 1).kind, OpKind::kEnd);
  EXPECT_EQ(source->next(0, 1).kind, OpKind::kEnd);
  source->end_job(0);
}

TEST(ReplayReader, TornFixtureThrows) {
  // The final line ("op 0 wri") has no newline: the writer died mid-line.
  try {
    (void)ReplayLog::load(fixture("torn.chwl"), {});
    FAIL() << "accepted a torn log";
  } catch (const ReplayFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("torn final line"), std::string::npos)
        << e.what();
  }
  // Every line complete, but the footer never came.
  const TempLog footerless("chwl 1\nwindow 100\njob 1 0 1 1 system\n");
  try {
    (void)ReplayLog::load(footerless.path(), {});
    FAIL() << "accepted a log without its footer";
  } catch (const ReplayFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("footer"), std::string::npos)
        << e.what();
  }
}

TEST(ReplayReader, GarbageFixtureThrowsTypedError) {
  // The fixture's byte count overflows int64: the reader must fail with a
  // line-numbered ReplayFormatError.
  try {
    (void)ReplayLog::load(fixture("garbage.chwl"), {});
    FAIL() << "accepted garbage";
  } catch (const ReplayFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("chwl line 6"), std::string::npos)
        << e.what();
  }
}

TEST(ReplayReader, MissingMagicThrows) {
  const TempLog log("window 100\nend chwl\n");
  EXPECT_THROW((void)ReplayLog::load(log.path(), {}),
               ReplayFormatError);
}

TEST(ReplayReader, MissingFileThrows) {
  EXPECT_THROW((void)ReplayLog::load(fixture("no_such.chwl"), {}),
               ReplayFormatError);
}

TEST(ReplayReader, RejectsStructuralGarbage) {
  // Each entry: a malformed body (appended after the magic line) and the
  // substring its error must carry.
  const struct {
    const char* body;
    const char* message;
  } kCases[] = {
      {"op 0 think 5\n", "op line before any job"},
      {"job 1 0 1 1 cfd_solver\nop 7 think 5\n", "op rank"},
      {"job 1 0 1 1 cfd_solver\nop 0 frobnicate 5\n", "unknown op verb"},
      {"job 1 0 1 1 cfd_solver\nop 0 seek 0 sideways 0 f\n", "seek whence"},
      {"job 1 0 1 1 cfd_solver\nop 0 read 5 0\n", "takes"},
      {"job 1 0 1 1 nonesuch\n", "unknown archetype"},
      {"job 1 0 1 1 cfd_solver\njob 1 9 1 1 cfd_solver\n", "duplicate job"},
      {"job 1 9 1 1 cfd_solver\njob 2 0 1 1 cfd_solver\n", "arrival order"},
      {"job 1 0 0 1 cfd_solver\n", "nodes"},
      {"job 1 0 7 1 cfd_solver\n", "not a power of two"},
      {"window 5\nwindow 5\n", "duplicate window"},
      {"job 1 0 1 1 cfd_solver\nwindow 5\n", "window must precede jobs"},
      {"job 1 0 1 1 cfd_solver\ninput 5 f\n", "input lines must precede"},
      {"mystery 1\n", "unknown directive"},
      {"end chwl\nop 0 think 5\n", "content after"},
  };
  for (const auto& c : kCases) {
    const TempLog log(std::string("chwl 1\n") + c.body + "end chwl\n");
    try {
      (void)ReplayLog::load(log.path(), {});
      FAIL() << "accepted: " << c.body;
    } catch (const ReplayFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << "body '" << c.body << "' raised '" << e.what() << "'";
    }
  }
}

TEST(ReplayReader, BoundsLineLengthBeforeAllocating) {
  // A single multi-megabyte line must be rejected at the 4 KiB cap, not
  // buffered whole.
  std::string text = "chwl 1\nwindow 100\njob 1 0 1 1 cfd_solver\nop 0 open "
                     "1 0 0 ";
  text.append(1u << 20, 'x');
  text += "\nend chwl\n";
  const TempLog log(text);
  try {
    (void)ReplayLog::load(log.path(), {});
    FAIL() << "accepted an oversized line";
  } catch (const ReplayFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
}

TEST(ReplayReader, BoundsNodeCountBeforeAllocating) {
  // nodes > 2^20 is rejected while parsing the job line — before any
  // per-rank script vector is sized from it.
  const TempLog log("chwl 1\nwindow 100\njob 1 0 99999999999 1 cfd_solver\n"
                    "end chwl\n");
  try {
    (void)ReplayLog::load(log.path(), {});
    FAIL() << "accepted an absurd node count";
  } catch (const ReplayFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
}

// Request sizes, seek offsets and input sizes share the file system's
// bounds: a value past them is a typed error at load, before a study could
// walk or allocate blocks for it; the bounds themselves load.
TEST(ReplayReader, BoundsSizesAndOffsetsByTheFileSystemLimits) {
  const std::string request = std::to_string(cfs::kMaxRequestBytes);
  const std::string file = std::to_string(cfs::kMaxFileBytes);
  const std::string job = "job 1 0 1 1 cfd_solver\n";
  const struct {
    std::string body;
    const char* what;  // nullptr: loads
  } kCases[] = {
      {job + "op 0 read " + request + " 0 f\n", nullptr},
      {job + "op 0 write " + std::to_string(cfs::kMaxRequestBytes + 1) +
           " 0 f\n",
       "bytes"},
      {job + "op 0 read 4294967297 0 f\n", "bytes"},
      {job + "op 0 seek " + file + " set 0 f\n", nullptr},
      {job + "op 0 seek -" + file + " cur 0 f\n", nullptr},
      {job + "op 0 seek 1125899906842624 set 0 f\n", "offset"},
      {job + "op 0 seek -68719476737 cur 0 f\n", "offset"},
      {"input " + file + " in/big\n", nullptr},
      {"input 68719476737 in/big\n", "input bytes"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.body);
    const TempLog log("chwl 1\n" + c.body + "end chwl\n");
    if (c.what == nullptr) {
      EXPECT_NO_THROW((void)ReplayLog::load(log.path(), {}));
      continue;
    }
    try {
      (void)ReplayLog::load(log.path(), {});
      ADD_FAILURE() << "accepted";
    } catch (const ReplayFormatError& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ReplayReader, EmptyAndCommentOnlyLogs) {
  const TempLog empty("");
  EXPECT_THROW((void)ReplayLog::load(empty.path(), {}),
               ReplayFormatError);
  // Header + footer and nothing else is a valid (zero-job) log.
  const TempLog bare("# nothing here\nchwl 1\nend chwl\n");
  const ReplayLog log = ReplayLog::load(bare.path(), {});
  EXPECT_TRUE(log.workload().jobs.empty());
  EXPECT_TRUE(log.workload().inputs.empty());
}

TEST(ReplayReader, UnterminatedFooterIsComplete) {
  // A final "end chwl" with no trailing newline is content-evidently
  // complete: the reader accepts it.
  const TempLog log("chwl 1\nwindow 100\nend chwl");
  const ReplayLog parsed = ReplayLog::load(log.path(), {});
  EXPECT_EQ(parsed.workload().window, 100);
}

TEST(ReplayReader, CrLfLinesParse) {
  const TempLog log("chwl 1\r\nwindow 100\r\njob 1 0 1 1 system\r\n"
                    "op 0 think 5\r\nend chwl\r\n");
  const ReplayLog parsed = ReplayLog::load(log.path(), {});
  ASSERT_EQ(parsed.workload().jobs.size(), 1u);
  const JobScripts scripts = parsed.compile_job(0);
  ASSERT_EQ(scripts.nodes[0].ops.size(), 1u);
  EXPECT_EQ(scripts.nodes[0].ops[0].think, 5);
}

}  // namespace
}  // namespace charisma::workload
