#include "trace/postprocess.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace charisma::trace {

MicroSec ClockFit::apply(MicroSec local) const noexcept {
  return static_cast<MicroSec>(
      std::llround(scale * static_cast<double>(local) + offset));
}

namespace {

struct FitAcc {
  double sum_l = 0, sum_g = 0, sum_ll = 0, sum_lg = 0;
  std::size_t n = 0;
};

/// Records handed to every sink per timed batch: large enough to amortize
/// the stopwatch and the per-sink virtual dispatch, small enough to stay
/// cache-resident.  Batching is order-preserving per sink, and sinks are
/// independent of each other, so outputs are bit-identical to per-record
/// dispatch.
constexpr std::size_t kSinkBatch = 1024;

}  // namespace

std::unordered_map<NodeId, ClockFit> fit_clocks(const SpilledTrace& trace) {
  // Ordered map: the fitting loop below iterates, and iteration order must
  // not depend on hash layout (charisma-unordered-iter).
  std::map<NodeId, FitAcc> accs;
  for (const SpillBlock& b : trace.blocks) {
    auto& a = accs[b.node];
    const auto l = static_cast<double>(b.sent_local);
    const auto g = static_cast<double>(b.recv_global);
    a.sum_l += l;
    a.sum_g += g;
    a.sum_ll += l * l;
    a.sum_lg += l * g;
    ++a.n;
  }
  std::unordered_map<NodeId, ClockFit> fits;
  for (const auto& [node, a] : accs) {
    ClockFit fit;
    fit.samples = a.n;
    const auto n = static_cast<double>(a.n);
    const double denom = n * a.sum_ll - a.sum_l * a.sum_l;
    if (a.n >= 2 && std::abs(denom) > 1e-6) {
      fit.scale = (n * a.sum_lg - a.sum_l * a.sum_g) / denom;
      // Clock rates are within a few hundred ppm of unity; a wilder fit
      // means the samples were degenerate (e.g. all at one instant).
      if (fit.scale < 0.99 || fit.scale > 1.01) fit.scale = 1.0;
      fit.offset = (a.sum_g - fit.scale * a.sum_l) / n;
    } else if (a.n >= 1) {
      fit.scale = 1.0;
      fit.offset = (a.sum_g - a.sum_l) / n;
    }
    fits.emplace(node, fit);
  }
  return fits;
}

std::uint64_t stream_postprocess(const SpilledTrace& trace,
                                 const std::vector<RecordSink*>& sinks,
                                 const StreamMergeOptions& options) {
  StreamMergeStats local_stats;
  StreamMergeStats& stats =
      options.stats != nullptr ? *options.stats : local_stats;
  stats = StreamMergeStats{};
  const auto fits = fit_clocks(trace);

  // The global sort is a stable k-way merge of one run per node, not a
  // stable_sort over the whole trace: the collector enforces monotone
  // per-node record times, blocks sit in trace.blocks in flush order, and
  // ClockFit::apply is a monotone map, so each node's records, read across
  // its blocks in order, are already sorted by (corrected time, position in
  // the concatenated block stream).  Merging with that exact key yields what
  // a stable_sort by corrected time would.  Each cursor holds only its
  // current block's decoded records, read back on demand, so the resident
  // set is one block per node regardless of trace length.
  struct Cursor {
    // (block index into trace.blocks, concatenated offset of its first
    // record), in flush order.
    std::vector<std::pair<std::size_t, std::size_t>> blocks;
    std::size_t bi = 0;  // current block
    std::size_t ri = 0;  // next record within it
    const ClockFit* fit = nullptr;
    std::vector<Record> buf;  // current block's records
  };
  // Ordered map: heap seeding below iterates (charisma-unordered-iter).
  std::map<NodeId, Cursor> cursors;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < trace.blocks.size(); ++i) {
    const SpillBlock& b = trace.blocks[i];
    if (b.count > 0) cursors[b.node].blocks.emplace_back(i, offset);
    offset += b.count;
  }

  std::ifstream in = trace.open_payload();
  const auto load_current = [&](Cursor& c) {
    const std::size_t block = c.blocks[c.bi].first;
    const SpillBlock& meta = trace.blocks[block];
    if (!meta.in_memory()) {
      stats.disk_bytes_read += static_cast<std::int64_t>(meta.count) *
                               static_cast<std::int64_t>(Record::kEncodedSize);
    }
    const util::Stopwatch sw;
    trace.read_block(block, in, c.buf);
    stats.read_ms += sw.elapsed_ms();
  };

  struct Head {
    MicroSec ts = 0;       // corrected timestamp of the cursor's record
    std::size_t idx = 0;   // its concatenated position (stability key)
    Cursor* cur = nullptr;
  };
  const auto later = [](const Head& a, const Head& b) noexcept {
    return a.ts != b.ts ? a.ts > b.ts : a.idx > b.idx;
  };
  const auto head_of = [](Cursor& c) noexcept {
    const Record& r = c.buf[c.ri];
    const MicroSec ts =
        c.fit != nullptr ? c.fit->apply(r.timestamp) : r.timestamp;
    return Head{ts, c.blocks[c.bi].second + c.ri, &c};
  };

  std::vector<Head> heap;
  heap.reserve(cursors.size());
  for (auto& [node, c] : cursors) {
    const auto it = fits.find(node);
    c.fit = it == fits.end() ? nullptr : &it->second;
    load_current(c);
    heap.push_back(head_of(c));
  }
  std::make_heap(heap.begin(), heap.end(), later);

  for (RecordSink* sink : sinks) sink->on_start(trace.record_count());

  // Corrected records are staged into a batch and handed to each sink in
  // order: every sink still sees the exact merged sequence, but the virtual
  // dispatch and the sink-time stopwatch amortize over kSinkBatch records.
  std::vector<Record> batch;
  batch.reserve(kSinkBatch);
  const auto flush_batch = [&] {
    if (batch.empty()) return;
    const util::Stopwatch sw;
    for (RecordSink* sink : sinks) {
      for (const Record& r : batch) sink->on_record(r);
    }
    stats.sink_ms += sw.elapsed_ms();
    batch.clear();
  };

  std::uint64_t pushed = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Head h = heap.back();
    heap.pop_back();
    Cursor& c = *h.cur;
    Record r = c.buf[c.ri];
    r.timestamp = h.ts;
    batch.push_back(r);
    if (batch.size() >= kSinkBatch) flush_batch();
    ++pushed;
    if (++c.ri == c.buf.size()) {
      c.ri = 0;
      ++c.bi;
      if (c.bi < c.blocks.size()) load_current(c);
    }
    if (c.bi < c.blocks.size()) {
      const Head next = head_of(c);
      DCHECK(next.ts >= h.ts,
             "a node produced non-monotone corrected times: ", next.ts,
             " after ", h.ts);
      heap.push_back(next);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  flush_batch();
  return pushed;
}

}  // namespace charisma::trace
