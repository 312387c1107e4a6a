#include "workload/replay.hpp"

#include <bit>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace charisma::workload {

namespace {

// Bounded-allocation limits: everything below is checked BEFORE any
// allocation is sized from a parsed value, so a garbage byte costs a typed
// error, never memory.  Request sizes, seek offsets and input sizes share
// the file system's own bounds (cfs::kMaxRequestBytes, cfs::kMaxFileBytes).
constexpr std::size_t kMaxLineBytes = 4096;
constexpr std::int64_t kMaxNodes = std::int64_t{1} << 20;
constexpr std::int64_t kMaxTime = std::int64_t{1} << 60;
constexpr std::int64_t kMaxJobs = std::int64_t{1} << 24;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  std::ostringstream os;
  os << "chwl line " << line_no << ": " << what;
  throw ReplayFormatError(os.str());
}

/// Reads '\n'-terminated lines off a raw streambuf, tracking the byte
/// offset of each line's start (for job-region indexing) and whether the
/// final line was terminated ('complete') — an unterminated tail is how a
/// torn log presents.
class LineReader {
 public:
  LineReader(std::istream& in, std::size_t line_no, std::int64_t pos)
      : buf_(in.rdbuf()), line_no_(line_no), pos_(pos) {}

  /// False at EOF with nothing read; otherwise `line()` holds the content.
  bool next() {
    line_.clear();
    complete_ = false;
    line_begin_ = pos_;
    ++line_no_;
    int c = 0;
    while ((c = buf_->sbumpc()) != std::char_traits<char>::eof()) {
      ++pos_;
      if (c == '\n') {
        complete_ = true;
        return true;
      }
      if (c == '\r') continue;  // tolerate CRLF line endings
      if (line_.size() >= kMaxLineBytes) {
        fail(line_no_, "line exceeds " + std::to_string(kMaxLineBytes) +
                           " bytes");
      }
      line_.push_back(static_cast<char>(c));
    }
    return !line_.empty();
  }

  [[nodiscard]] const std::string& line() const noexcept { return line_; }
  [[nodiscard]] bool complete() const noexcept { return complete_; }
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }
  [[nodiscard]] std::int64_t line_begin() const noexcept {
    return line_begin_;
  }
  [[nodiscard]] std::int64_t pos() const noexcept { return pos_; }

 private:
  std::streambuf* buf_;
  std::string line_;
  std::size_t line_no_ = 0;
  std::int64_t pos_ = 0;
  std::int64_t line_begin_ = 0;
  bool complete_ = false;
};

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

[[nodiscard]] bool is_noise(const std::string& line) {
  const std::size_t i = line.find_first_not_of(" \t");
  return i == std::string::npos || line[i] == '#';
}

std::int64_t parse_int(const std::string& token, std::int64_t lo,
                       std::int64_t hi, std::size_t line_no,
                       const char* what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (token.empty() || errno == ERANGE ||
      end != token.c_str() + token.size()) {
    fail(line_no, std::string(what) + " is not a number: '" + token + "'");
  }
  if (v < lo || v > hi) {
    fail(line_no, std::string(what) + " " + token + " out of range [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

struct ParsedOp {
  std::int32_t rank = 0;
  Op op;
  std::string path;  // empty for think/barrier
};

/// Parses (and fully range-checks) one `op` line.  `nodes` bounds the rank.
ParsedOp parse_op_line(const std::vector<std::string>& t, std::size_t line_no,
                       std::int32_t nodes) {
  if (t.size() < 3) fail(line_no, "op line needs at least a rank and a verb");
  ParsedOp parsed;
  parsed.rank = static_cast<std::int32_t>(
      parse_int(t[1], 0, nodes - 1, line_no, "op rank"));
  const std::string& verb = t[2];
  const auto want = [&](std::size_t n) {
    if (t.size() != n) {
      fail(line_no, "op '" + verb + "' takes " + std::to_string(n - 3) +
                        " operand(s), got " + std::to_string(t.size() - 3));
    }
  };
  Op& op = parsed.op;
  if (verb == "think") {
    want(4);
    op.kind = OpKind::kThink;
    op.think = parse_int(t[3], 0, kMaxTime, line_no, "think");
  } else if (verb == "barrier") {
    want(4);
    op.kind = OpKind::kBarrier;
    op.think = parse_int(t[3], 0, kMaxTime, line_no, "think");
  } else if (verb == "open") {
    want(7);
    op.kind = OpKind::kOpen;
    op.flags =
        static_cast<std::uint8_t>(parse_int(t[3], 0, 255, line_no, "flags"));
    op.mode =
        static_cast<IoMode>(parse_int(t[4], 0, 3, line_no, "io mode"));
    op.think = parse_int(t[5], 0, kMaxTime, line_no, "think");
    parsed.path = t[6];
  } else if (verb == "read" || verb == "write") {
    want(6);
    op.kind = verb == "read" ? OpKind::kRead : OpKind::kWrite;
    op.bytes = parse_int(t[3], 0, cfs::kMaxRequestBytes, line_no, "bytes");
    op.think = parse_int(t[4], 0, kMaxTime, line_no, "think");
    parsed.path = t[5];
  } else if (verb == "seek") {
    want(7);
    op.kind = OpKind::kSeek;
    op.offset = parse_int(t[3], -cfs::kMaxFileBytes, cfs::kMaxFileBytes,
                          line_no, "offset");
    if (t[4] == "set") {
      op.whence = Whence::kSet;
    } else if (t[4] == "cur") {
      op.whence = Whence::kCurrent;
    } else if (t[4] == "end") {
      op.whence = Whence::kEnd;
    } else {
      fail(line_no, "seek whence must be set|cur|end, got '" + t[4] + "'");
    }
    op.think = parse_int(t[5], 0, kMaxTime, line_no, "think");
    parsed.path = t[6];
  } else if (verb == "close" || verb == "unlink") {
    want(5);
    op.kind = verb == "close" ? OpKind::kClose : OpKind::kUnlink;
    op.think = parse_int(t[3], 0, kMaxTime, line_no, "think");
    parsed.path = t[4];
  } else {
    fail(line_no, "unknown op verb '" + verb + "'");
  }
  return parsed;
}

const char* whence_token(Whence w) {
  switch (w) {
    case Whence::kSet: return "set";
    case Whence::kCurrent: return "cur";
    case Whence::kEnd: return "end";
  }
  return "set";
}

/// The "replay" Source: region-indexed log, per-job scripts compiled at
/// start_job by ScriptedSource.
class ReplaySource final : public ScriptedSource {
 public:
  explicit ReplaySource(ReplayLog log) : log_(std::move(log)) {
    workload_ = log_.workload();
  }

 protected:
  [[nodiscard]] JobScripts compile_job(std::size_t spec_index) override {
    return log_.compile_job(spec_index);
  }

 private:
  ReplayLog log_;
};

}  // namespace

ReplayLog ReplayLog::load(const std::string& path,
                          const WorkloadConfig& config) {
  ReplayLog log;
  log.path_ = path;
  log.workload_.config = config;

  std::ifstream in(path, std::ios::binary);
  if (!in) throw ReplayFormatError("cannot open replay log: " + path);
  LineReader reader(in, 0, 0);

  bool saw_magic = false;
  bool saw_footer = false;
  bool saw_window = false;
  std::set<cfs::JobId> job_ids;
  const JobSpec* current = nullptr;  // job whose op region is open

  const auto close_region = [&](std::int64_t end) {
    if (current != nullptr) log.regions_.back().end = end;
    current = nullptr;
  };

  while (reader.next()) {
    const std::string& line = reader.line();
    const std::size_t line_no = reader.line_no();
    if (!reader.complete()) {
      // Unterminated tail: the writer died mid-line.  The footer is the one
      // line whose completeness is content-evident.
      if (line == "end chwl") {
        saw_footer = true;
        close_region(reader.line_begin());
        break;
      }
      fail(line_no, "torn final line (no newline)");
    }
    if (is_noise(line)) continue;
    const std::vector<std::string> t = tokenize(line);
    if (!saw_magic) {
      if (t.size() != 2 || t[0] != "chwl" || t[1] != "1") {
        fail(line_no, "expected magic 'chwl 1', got '" + line + "'");
      }
      saw_magic = true;
      continue;
    }
    if (saw_footer) fail(line_no, "content after 'end chwl'");
    if (t[0] == "window") {
      if (t.size() != 2) fail(line_no, "window takes one operand");
      if (saw_window) fail(line_no, "duplicate window line");
      if (current != nullptr) fail(line_no, "window must precede jobs");
      log.workload_.window = parse_int(t[1], 0, kMaxTime, line_no, "window");
      saw_window = true;
    } else if (t[0] == "input") {
      if (t.size() != 3) fail(line_no, "input takes <bytes> <path>");
      if (!log.workload_.jobs.empty()) {
        fail(line_no, "input lines must precede jobs");
      }
      PrePopFile file;
      file.bytes =
          parse_int(t[1], 0, cfs::kMaxFileBytes, line_no, "input bytes");
      file.path = t[2];
      log.workload_.inputs.push_back(std::move(file));
    } else if (t[0] == "job") {
      if (t.size() != 6) {
        fail(line_no, "job takes <id> <arrival> <nodes> <traced> <archetype>");
      }
      close_region(reader.line_begin());
      if (static_cast<std::int64_t>(log.workload_.jobs.size()) >= kMaxJobs) {
        fail(line_no, "more than " + std::to_string(kMaxJobs) + " jobs");
      }
      JobSpec spec;
      spec.job = static_cast<cfs::JobId>(
          parse_int(t[1], 0, std::numeric_limits<cfs::JobId>::max(), line_no,
                    "job id"));
      if (!job_ids.insert(spec.job).second) {
        fail(line_no, "duplicate job id " + t[1]);
      }
      spec.arrival = parse_int(t[2], 0, kMaxTime, line_no, "arrival");
      if (!log.workload_.jobs.empty() &&
          spec.arrival < log.workload_.jobs.back().arrival) {
        fail(line_no, "jobs out of arrival order");
      }
      spec.nodes = static_cast<std::int32_t>(
          parse_int(t[3], 1, kMaxNodes, line_no, "nodes"));
      if (!std::has_single_bit(static_cast<std::uint32_t>(spec.nodes))) {
        // The iPSC/860 allocates jobs subcubes of the hypercube.
        fail(line_no, "nodes " + t[3] + " is not a power of two");
      }
      spec.traced = parse_int(t[4], 0, 1, line_no, "traced") != 0;
      if (!archetype_from_string(t[5], &spec.archetype)) {
        fail(line_no, "unknown archetype '" + t[5] + "'");
      }
      log.workload_.jobs.push_back(spec);
      JobRegion region;
      region.begin = reader.pos();
      region.end = reader.pos();
      region.first_line = line_no + 1;
      log.regions_.push_back(region);
      current = &log.workload_.jobs.back();
    } else if (t[0] == "op") {
      if (current == nullptr) fail(line_no, "op line before any job");
      (void)parse_op_line(t, line_no, current->nodes);  // validate now
    } else if (t.size() == 2 && t[0] == "end" && t[1] == "chwl") {
      saw_footer = true;
      close_region(reader.line_begin());
    } else {
      fail(line_no, "unknown directive '" + t[0] + "'");
    }
  }

  if (!saw_magic) {
    throw ReplayFormatError("replay log has no 'chwl 1' header: " + path);
  }
  if (!saw_footer) {
    throw ReplayFormatError("replay log missing 'end chwl' footer (torn?): " +
                            path);
  }
  return log;
}

JobScripts ReplayLog::compile_job(std::size_t spec_index) const {
  CHECK(spec_index < workload_.jobs.size(), "compile_job(", spec_index,
        ") out of range (", workload_.jobs.size(), " jobs)");
  const JobSpec& spec = workload_.jobs[spec_index];
  const JobRegion& region = regions_[spec_index];
  JobScripts scripts;
  scripts.nodes.resize(static_cast<std::size_t>(spec.nodes));

  std::ifstream in(path_, std::ios::binary);
  if (!in) throw ReplayFormatError("cannot reopen replay log: " + path_);
  in.seekg(region.begin);
  LineReader reader(in, region.first_line - 1, region.begin);
  std::map<std::string, std::int32_t> intern;
  while (reader.pos() < region.end && reader.next()) {
    const std::string& line = reader.line();
    if (is_noise(line)) continue;
    ParsedOp parsed =
        parse_op_line(tokenize(line), reader.line_no(), spec.nodes);
    if (!parsed.path.empty()) {
      const auto [it, inserted] = intern.emplace(
          parsed.path, static_cast<std::int32_t>(scripts.paths.size()));
      if (inserted) scripts.paths.push_back(parsed.path);
      parsed.op.path = it->second;
    }
    scripts.nodes[static_cast<std::size_t>(parsed.rank)].ops.push_back(
        parsed.op);
  }
  return scripts;
}

std::unique_ptr<Source> make_replay_source(const std::string& path,
                                           const WorkloadConfig& config) {
  return std::make_unique<ReplaySource>(ReplayLog::load(path, config));
}

void export_source_log(Source& source, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  CHECK(out.good(), "cannot open workload log for writing: '", path, "'");
  const auto check_path = [](const std::string& p) {
    CHECK(!p.empty() && p.find_first_of(" \t\r\n") == std::string::npos,
          "chwl paths must be non-empty and whitespace-free: '", p, "'");
  };
  const GeneratedWorkload& w = source.workload();
  out << "chwl 1\n";
  out << "window " << w.window << '\n';
  for (const PrePopFile& in : w.inputs) {
    check_path(in.path);
    out << "input " << in.bytes << ' ' << in.path << '\n';
  }
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const JobSpec& spec = w.jobs[i];
    out << "job " << spec.job << ' ' << spec.arrival << ' ' << spec.nodes
        << ' ' << (spec.traced ? 1 : 0) << ' ' << to_string(spec.archetype)
        << '\n';
    const std::vector<std::string> paths = source.start_job(i);
    for (std::int32_t rank = 0; rank < spec.nodes; ++rank) {
      for (Op op = source.next(i, rank); op.kind != OpKind::kEnd;
           op = source.next(i, rank)) {
        out << "op " << rank << ' ';
        const auto path_of = [&]() -> const std::string& {
          CHECK(op.path >= 0 &&
                    static_cast<std::size_t>(op.path) < paths.size(),
                "op path index ", op.path, " outside the job path table");
          const std::string& p = paths[static_cast<std::size_t>(op.path)];
          check_path(p);
          return p;
        };
        switch (op.kind) {
          case OpKind::kThink:
            out << "think " << op.think;
            break;
          case OpKind::kBarrier:
            out << "barrier " << op.think;
            break;
          case OpKind::kOpen:
            out << "open " << static_cast<int>(op.flags) << ' '
                << static_cast<int>(op.mode) << ' ' << op.think << ' '
                << path_of();
            break;
          case OpKind::kRead:
          case OpKind::kWrite:
            out << (op.kind == OpKind::kRead ? "read " : "write ")
                << op.bytes << ' ' << op.think << ' ' << path_of();
            break;
          case OpKind::kSeek:
            out << "seek " << op.offset << ' ' << whence_token(op.whence)
                << ' ' << op.think << ' ' << path_of();
            break;
          case OpKind::kClose:
            out << "close " << op.think << ' ' << path_of();
            break;
          case OpKind::kUnlink:
            out << "unlink " << op.think << ' ' << path_of();
            break;
          case OpKind::kEnd:
            CHECK(false, "kEnd must terminate the pull loop");
            break;
        }
        out << '\n';
      }
    }
    source.end_job(i);
  }
  out << "end chwl\n";
  out.flush();
  CHECK(out.good(), "short write exporting workload log: '", path, "'");
}

}  // namespace charisma::workload
