#include "trace/postprocess.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/mutex.hpp"
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

// Shared by both fit_clocks overloads: TraceBlock and SpillBlock expose the
// same stamp fields, which are all the least-squares fit consumes.
template <typename Blocks>
std::unordered_map<NodeId, ClockFit> fit_clocks_from(const Blocks& blocks) {
  // Ordered map: the fitting loop below iterates, and iteration order must
  // not depend on hash layout (charisma-unordered-iter).
  std::map<NodeId, FitAcc> accs;
  for (const auto& b : blocks) {
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

/// Per-cursor landing slot for one background-prefetched block.
struct PrefetchSlot {
  enum class State { kIdle, kPending, kReady };
  State state = State::kIdle;
  std::size_t block = 0;  // trace.blocks index the slot is (to be) holding
  std::vector<Record> buf;
};

/// One background reader with its own payload stream, keeping at most one
/// decoded next-block per cursor in flight.  Requests are only ever issued
/// for the block a cursor will need next, so a slot is always either idle or
/// dedicated to exactly that block.
class BlockPrefetcher {
 public:
  explicit BlockPrefetcher(const SpilledTrace& trace)
      : trace_(trace),
        in_(trace.open_payload()),
        thread_([this] { loop(); }) {}

  ~BlockPrefetcher() {
    {
      const util::MutexLock lock(mutex_);
      done_ = true;
    }
    work_cv_.notify_all();
    thread_.join();
  }

  BlockPrefetcher(const BlockPrefetcher&) = delete;
  BlockPrefetcher& operator=(const BlockPrefetcher&) = delete;

  void request(PrefetchSlot& slot, std::size_t block) {
    {
      const util::MutexLock lock(mutex_);
      if (!error_.empty()) return;  // surfaced by the next take()
      slot.state = PrefetchSlot::State::kPending;
      slot.block = block;
      queue_.push_back(&slot);
    }
    work_cv_.notify_one();
  }

  /// True when `slot` holds (or is about to hold) `block`: swaps its records
  /// into `out`, waiting out an in-flight read and charging the wait to
  /// `wait_ms`.  False when nothing was prefetched for this block.
  bool take(PrefetchSlot& slot, std::size_t block, std::vector<Record>& out,
            double& wait_ms) {
    const util::MutexLock lock(mutex_);
    if (slot.state == PrefetchSlot::State::kIdle || slot.block != block) {
      return false;
    }
    const util::Stopwatch sw;
    while (slot.state == PrefetchSlot::State::kPending && error_.empty()) {
      ready_cv_.wait(mutex_);
    }
    wait_ms += sw.elapsed_ms();
    if (!error_.empty()) throw std::runtime_error(error_);
    std::swap(out, slot.buf);
    slot.buf.clear();
    slot.state = PrefetchSlot::State::kIdle;
    return true;
  }

 private:
  void loop() {
    for (;;) {
      PrefetchSlot* slot = nullptr;
      std::size_t block = 0;
      {
        const util::MutexLock lock(mutex_);
        while (queue_.empty() && !done_) work_cv_.wait(mutex_);
        if (queue_.empty()) return;
        slot = queue_.front();
        queue_.pop_front();
        block = slot->block;
      }
      try {
        // The slot's buffer is never touched by the merge thread while the
        // slot is pending (take() waits), so filling a local vector first
        // and publishing under the lock keeps the window minimal.
        std::vector<Record> buf;
        trace_.read_block(block, in_, buf);
        const util::MutexLock lock(mutex_);
        slot->buf = std::move(buf);
        slot->state = PrefetchSlot::State::kReady;
      } catch (const std::exception& e) {
        const util::MutexLock lock(mutex_);
        error_ = e.what();
        ready_cv_.notify_all();
        return;
      }
      ready_cv_.notify_all();
    }
  }

  const SpilledTrace& trace_;
  std::ifstream in_;
  util::Mutex mutex_;
  std::condition_variable_any work_cv_;
  std::condition_variable_any ready_cv_;
  std::deque<PrefetchSlot*> queue_ CHARISMA_GUARDED_BY(mutex_);
  bool done_ CHARISMA_GUARDED_BY(mutex_) = false;
  std::string error_ CHARISMA_GUARDED_BY(mutex_);
  std::thread thread_;
};

/// Records handed to every sink per timed batch: large enough to amortize
/// the stopwatch and the per-sink virtual dispatch, small enough to stay
/// cache-resident.  Batching is order-preserving per sink, and sinks are
/// independent of each other, so outputs are bit-identical to per-record
/// dispatch.
constexpr std::size_t kSinkBatch = 1024;

}  // namespace

std::unordered_map<NodeId, ClockFit> fit_clocks(const TraceFile& trace) {
  return fit_clocks_from(trace.blocks);
}

std::unordered_map<NodeId, ClockFit> fit_clocks(const SpilledTrace& trace) {
  return fit_clocks_from(trace.blocks);
}

SortedTrace MaterializeSink::take(const TraceHeader& header) {
  SortedTrace out;
  out.header = header;
  out.records = std::move(records_);
  records_ = {};
  return out;
}

SortedTrace postprocess(const TraceFile& trace) {
  // An unbounded pool keeps every block in the memory tier, so the writer
  // never creates its (anonymous, lazily made) backing file.
  SpillBudget budget(std::numeric_limits<std::int64_t>::max());
  SpillWriterOptions options;
  options.budget = &budget;
  SpillWriter writer(SpillTarget{}, trace.header, options);
  for (const TraceBlock& block : trace.blocks) writer.append(block);
  const SpilledTrace spilled = writer.finish(trace.header.trace_end);
  MaterializeSink sink;
  (void)stream_postprocess(spilled, {&sink});
  return sink.take(trace.header);
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
    PrefetchSlot slot;        // the background-prefetched next block
  };
  // Ordered map: heap seeding below iterates (charisma-unordered-iter).
  std::map<NodeId, Cursor> cursors;
  std::size_t offset = 0;
  bool any_disk = false;
  for (std::size_t i = 0; i < trace.blocks.size(); ++i) {
    const SpillBlock& b = trace.blocks[i];
    if (b.count > 0) cursors[b.node].blocks.emplace_back(i, offset);
    offset += b.count;
    any_disk = any_disk || !b.in_memory();
  }

  std::ifstream in = trace.open_payload();
  // Prefetching only pays for blocks that hit the file; an all-resident
  // trace (the default-budget case) stays entirely thread-free.
  std::unique_ptr<BlockPrefetcher> prefetcher;
  if (options.prefetch && any_disk) {
    prefetcher = std::make_unique<BlockPrefetcher>(trace);
  }
  const auto load_current = [&](Cursor& c) {
    const std::size_t block = c.blocks[c.bi].first;
    const SpillBlock& meta = trace.blocks[block];
    if (meta.in_memory()) {
      ++stats.mem_blocks;
    } else {
      ++stats.disk_blocks;
      stats.disk_bytes_read += static_cast<std::int64_t>(meta.count) *
                               static_cast<std::int64_t>(Record::kEncodedSize);
    }
    bool loaded = false;
    if (prefetcher != nullptr && !meta.in_memory()) {
      loaded = prefetcher->take(c.slot, block, c.buf, stats.read_ms);
    }
    if (!loaded) {
      const util::Stopwatch sw;
      trace.read_block(block, in, c.buf);
      stats.read_ms += sw.elapsed_ms();
    }
    // Keep exactly one disk block in flight behind this cursor.
    if (prefetcher != nullptr && c.bi + 1 < c.blocks.size()) {
      const std::size_t next = c.blocks[c.bi + 1].first;
      if (!trace.blocks[next].in_memory()) prefetcher->request(c.slot, next);
    }
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

std::uint64_t count_order_inversions(
    const std::vector<MicroSec>& true_times,
    const std::vector<MicroSec>& estimated_times) {
  const std::size_t n = true_times.size();
  if (n != estimated_times.size() || n < 2) return 0;
  // Order events by estimated time (stable), then count inversions of the
  // true-time sequence with a merge sort.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimated_times[a] < estimated_times[b];
                   });
  std::vector<MicroSec> seq(n);
  for (std::size_t i = 0; i < n; ++i) seq[i] = true_times[order[i]];

  std::uint64_t inversions = 0;
  std::vector<MicroSec> tmp(n);
  const std::function<void(std::size_t, std::size_t)> sort_count =
      [&](std::size_t lo, std::size_t hi) {
        if (hi - lo < 2) return;
        const std::size_t mid = lo + (hi - lo) / 2;
        sort_count(lo, mid);
        sort_count(mid, hi);
        std::size_t i = lo, j = mid, k = lo;
        while (i < mid && j < hi) {
          if (seq[i] <= seq[j]) {
            tmp[k++] = seq[i++];
          } else {
            inversions += mid - i;
            tmp[k++] = seq[j++];
          }
        }
        while (i < mid) tmp[k++] = seq[i++];
        while (j < hi) tmp[k++] = seq[j++];
        std::copy(tmp.begin() + static_cast<std::ptrdiff_t>(lo),
                  tmp.begin() + static_cast<std::ptrdiff_t>(hi),
                  seq.begin() + static_cast<std::ptrdiff_t>(lo));
      };
  sort_count(0, n);
  return inversions;
}

}  // namespace charisma::trace
