// The raw trace's header and blocks, and the constants that open its binary
// file format (`.chtr`).
//
// A trace file begins with a self-descriptive header (paper §3.1) and then
// holds the collector's output: a sequence of per-node record *blocks*, each
// stamped twice — with the node's local clock when the block left the node
// and with the collector's clock when it arrived.  The double timestamps are
// the postprocessor's only handle on clock drift, exactly as in the paper.
// trace/spill.hpp writes (SpilledTrace::save) and reads (SpilledTrace::open)
// the layout; nothing else encodes it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace charisma::trace {

/// First bytes of every trace file.
inline constexpr char kTraceMagic[8] = {'C', 'H', 'A', 'R',
                                        'I', 'S', 'M', 'A'};
/// The layout version stored after the magic.
inline constexpr std::uint32_t kTraceVersion = 1;

struct TraceHeader {
  std::int32_t compute_nodes = 0;
  std::int32_t io_nodes = 0;
  std::int64_t block_size = 0;
  std::uint64_t seed = 0;
  MicroSec trace_start = 0;
  MicroSec trace_end = 0;
  std::string label;
};

/// One buffered batch of records from one compute node.
struct TraceBlock {
  NodeId node = 0;
  MicroSec sent_local = 0;   // node clock when the buffer was sent
  MicroSec recv_global = 0;  // collector clock when it arrived
  std::vector<Record> records;
};

}  // namespace charisma::trace
