// The trace tests' raw traces.  A RawTrace is the collector's output held in
// memory: a header and its blocks in flush order.  spill() writes one through
// the production SpillWriter; load() reads a spilled or reopened trace back
// block by block through SpilledTrace::read_block, so a test that inspects
// raw blocks decodes them on the path the merge takes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "trace/spill.hpp"
#include "trace/trace_file.hpp"

namespace charisma::trace::fixtures {

struct RawTrace {
  TraceHeader header;
  std::vector<TraceBlock> blocks;

  [[nodiscard]] std::uint64_t record_count() const noexcept {
    std::uint64_t n = 0;
    for (const TraceBlock& b : blocks) n += b.records.size();
    return n;
  }
};

/// Spills every block of `t` through a SpillWriter into `target` under
/// `options`, finished with the header's trace_end.
[[nodiscard]] inline SpilledTrace spill(const RawTrace& t,
                                        const SpillTarget& target,
                                        const SpillWriterOptions& options = {}) {
  SpillWriter writer(target, t.header, options);
  for (const TraceBlock& b : t.blocks) writer.append(b);
  return writer.finish(t.header.trace_end);
}

/// spill() with every block in the memory tier: no file is made.
[[nodiscard]] inline SpilledTrace resident(const RawTrace& t) {
  SpillBudget unbounded(std::numeric_limits<std::int64_t>::max());
  SpillWriterOptions options;
  options.budget = &unbounded;
  return spill(t, SpillTarget{}, options);
}

/// Every block of `s` decoded through read_block: the raw trace as the
/// collector sent it.  Throws what read_block throws.
[[nodiscard]] inline RawTrace load(const SpilledTrace& s) {
  RawTrace t;
  t.header = s.header;
  t.blocks.resize(s.blocks.size());
  for (std::size_t i = 0; i < s.blocks.size(); ++i) {
    TraceBlock& b = t.blocks[i];
    b.node = s.blocks[i].node;
    b.sent_local = s.blocks[i].sent_local;
    b.recv_global = s.blocks[i].recv_global;
    s.read_block(i, b.records);
  }
  return t;
}

/// The whole file at `path` (empty when it cannot be read).
[[nodiscard]] inline std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Byte offset of the block-count field in the header save() writes for a
/// trace labelled `label`.
[[nodiscard]] inline std::size_t block_count_offset(const std::string& label) {
  return 8 /*magic*/ + 4 /*version*/ + 4 + 4 + 8 + 8 + 8 + 8 + 4 +
         label.size();
}

/// Replaces the file at `path` with `bytes`.
inline void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace charisma::trace::fixtures
