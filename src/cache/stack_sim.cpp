#include "cache/stack_sim.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace charisma::cache {

SegmentedLruStack::SegmentedLruStack(
    const std::vector<std::size_t>& capacities)
    : index_(capacities.empty() ? 0 : capacities.back()) {
  CHECK(!capacities.empty(), "segmented stack needs at least one capacity");
  CHECK(std::adjacent_find(capacities.begin(), capacities.end(),
                           std::greater_equal<>()) == capacities.end(),
        "segmented stack capacities must be strictly increasing");
  // A zero capacity never hits and never stores, so it contributes no
  // segment; its bucket index is simply skipped (distinct capacities mean
  // at most one zero, in front).
  zero_offset_ = capacities.front() == 0 ? 1 : 0;
  capacities_.assign(capacities.begin() + zero_offset_, capacities.end());
  CHECK(!capacities_.empty(), "segmented stack needs a nonzero capacity");
  segments_ = capacities_.size();
  const std::size_t max_capacity = capacities_.back();
  CHECK(max_capacity + segments_ < kNil,
        "segmented stack capacity exceeds the slab index range");

  // Slab indices [0, segments_) are the boundary sentinels, linked in
  // capacity order; blocks are appended after them.
  nodes_.reserve(segments_ + max_capacity);
  for (std::uint32_t i = 0; i < segments_; ++i) {
    Node s;
    s.prev = i == 0 ? kNil : i - 1;
    s.next = i + 1 < segments_ ? i + 1 : kNil;
    s.seg = i;
    nodes_.push_back(s);
  }
  head_ = 0;
}

void SegmentedLruStack::unlink(std::uint32_t idx) {
  Node& n = nodes_[idx];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
}

void SegmentedLruStack::insert_before(std::uint32_t pos, std::uint32_t idx) {
  Node& n = nodes_[idx];
  Node& p = nodes_[pos];
  n.prev = p.prev;
  n.next = pos;
  if (p.prev != kNil) {
    nodes_[p.prev].next = idx;
  } else {
    head_ = idx;
  }
  p.prev = idx;
}

void SegmentedLruStack::push_front(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.prev = kNil;
  n.next = head_;
  nodes_[head_].prev = idx;  // the list always holds the sentinels
  head_ = idx;
}

void SegmentedLruStack::promote(std::uint32_t idx, std::uint32_t seg) {
  if (head_ == idx) return;  // already the most recent block
  unlink(idx);
  // Re-fronting pushes every block above the old position one place down,
  // so exactly one block crosses each boundary the hit came from below.
  // Segments 0..seg-1 were full (the block sat below them), so each
  // sentinel's prev is a real block.
  for (std::uint32_t j = 0; j < seg; ++j) {
    const std::uint32_t r = nodes_[j].prev;
    unlink(r);
    insert_before(nodes_[j].next, r);
    nodes_[r].seg = j + 1;
  }
  push_front(idx);
  nodes_[idx].seg = 0;
}

void SegmentedLruStack::insert_cold(const BlockKey& key, bool index) {
  // The new front pushes every resident block one place down: one block
  // crosses each boundary whose segment is full; past the largest capacity
  // the block is evicted (indistinguishable from cold from then on) and
  // its node takes the new block.
  std::uint32_t idx = kNil;
  for (std::uint32_t j = 0; j < segments_; ++j) {
    if (size_ < capacities_[j]) break;
    const std::uint32_t r = nodes_[j].prev;
    unlink(r);
    if (j + 1 == segments_) {  // falls off the largest simulated cache
      if (nodes_[r].indexed) index_.erase(nodes_[r].key);
      idx = r;
      --size_;
      break;
    }
    insert_before(nodes_[j].next, r);
    nodes_[r].seg = j + 1;
  }

  if (idx == kNil) {
    idx = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{});
  }
  nodes_[idx].key = key;
  nodes_[idx].seg = 0;
  nodes_[idx].indexed = index;
  push_front(idx);
  ++size_;
  // Eviction's backward-shift erase may rearrange the probe chain, so the
  // insertion re-probes rather than reusing the lookup's slot.
  if (index) index_.insert(key, idx);
  DCHECK(size_ <= capacities_.back(), "stack outgrew the largest capacity");
}

std::size_t SegmentedLruStack::access(const BlockKey& key, unsigned reuse) {
  // A block with no earlier reference cannot be resident: skip the probe.
  if ((reuse & kReuseEarlier) != 0) {
    const std::size_t slot = index_.slot_of(key);
    const std::uint32_t idx = index_.node_at(slot);
    if (idx != BlockIndex::kAbsent) {
      if ((reuse & kReuseLater) == 0) {  // last reference: nothing looks
        index_.erase_at(slot);           // the block up again
        nodes_[idx].indexed = false;
      }
      const std::uint32_t seg = nodes_[idx].seg;
      promote(idx, seg);
      return seg + zero_offset_;
    }
  }
  insert_cold(key, (reuse & kReuseLater) != 0);
  return segments_ + zero_offset_;
}

namespace detail {
namespace {

/// Open-addressing map from block to its per-capacity FIFO insertion
/// sequence numbers, stored inline (one probe reaches everything the FIFO
/// group pass needs for a block).  A block whose stamps are all stale (or
/// all zero: retired after its last reference) is indistinguishable from
/// one never seen, so when the table fills it is compacted against a
/// caller-supplied liveness predicate before it is allowed to grow: live
/// entries are bounded by the summed cache capacities, which keeps the
/// table cache-resident no matter how many distinct blocks the trace
/// touches.
class FifoSeqTable {
 public:
  explicit FifoSeqTable(std::size_t k) : k_(k) { rehash(1u << 16); }

  /// The k sequence counters for `key`, zero-initialized on first touch.
  /// `live(key, seqs)` says whether an entry still matters (some stamp is
  /// within its capacity's window) — consulted only on compaction.
  template <typename Live>
  std::uint32_t* at(const BlockKey& key, const Live& live) {
    DCHECK(key.file != cfs::kNoFile, "block key uses the empty-slot marker");
    if ((size_ + 1) * 2 > keys_.size()) compact_or_grow(live);
    const std::size_t i = probe(key);
    if (keys_[i].file == cfs::kNoFile) {
      keys_[i] = key;
      ++size_;
    }
    return &seqs_[i * k_];
  }

  /// The k sequence counters for `key`, or null when it has no entry.
  std::uint32_t* find(const BlockKey& key) {
    const std::size_t i = probe(key);
    return keys_[i].file == cfs::kNoFile ? nullptr : &seqs_[i * k_];
  }

 private:
  [[nodiscard]] std::size_t probe(const BlockKey& key) const {
    std::size_t i = BlockKeyHash{}(key) & mask_;
    while (keys_[i].file != cfs::kNoFile && !(keys_[i] == key)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void rehash(std::size_t buckets) {
    keys_.assign(buckets, BlockKey{});  // kNoFile marks a vacant slot
    seqs_.assign(buckets * k_, 0);
    mask_ = buckets - 1;
  }

  /// Rebuilds the table with only the live entries, doubling the bucket
  /// count when the survivors alone would leave it more than a quarter
  /// full (so successive compactions stay amortized-cheap).
  template <typename Live>
  void compact_or_grow(const Live& live) {
    std::vector<BlockKey> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_seqs = std::move(seqs_);
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i].file != cfs::kNoFile &&
          live(old_keys[i], &old_seqs[i * k_])) {
        ++survivors;
      } else {
        old_keys[i].file = cfs::kNoFile;
      }
    }
    std::size_t buckets = old_keys.size();
    if ((survivors + 1) * 4 > buckets) buckets *= 2;
    rehash(buckets);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i].file == cfs::kNoFile) continue;
      const std::size_t j = probe(old_keys[i]);
      keys_[j] = old_keys[i];
      std::copy_n(&old_seqs[i * k_], k_, &seqs_[j * k_]);
    }
    size_ = survivors;
  }

  std::size_t k_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::vector<BlockKey> keys_;
  std::vector<std::uint32_t> seqs_;
};

}  // namespace

std::vector<ComputeCacheResult> stack_compute_group(
    const ReplayLog& ops, const std::vector<std::size_t>& buffer_counts) {
  const std::size_t k = buffer_counts.size();

  // One segmented stack per (job, node) stands in for the caches of every
  // buffer count at once.  Per job, bucket each request by the smallest
  // capacity that would have served all its blocks (the worst block's
  // bucket).
  PerNodeMap<SegmentedLruStack> stacks;
  std::map<JobId, std::vector<std::uint64_t>> per_job;  // k+1 buckets
  std::vector<std::uint64_t>* last_buckets = nullptr;
  JobId last_job = cfs::kNoJob;

  ops.for_each_with_reuse([&](const ReplayOp& op, BlockReuse reuse) {
    if (!op.is_read || !op.read_only_session) return;
    SegmentedLruStack& stack = stacks.at(op.job, op.node, buffer_counts);
    const auto [first, last] = span_of(op);
    // "Fully satisfied from the local buffer": every touched block present
    // before the request runs, so all block buckets are measured against
    // the stack state at request start (peek), and only then does the
    // request touch them.
    std::size_t worst = 0;
    for (std::int64_t b = first; b <= last; ++b) {
      const unsigned bits = reuse.at(static_cast<std::size_t>(b - first));
      worst = std::max(worst, stack.peek({op.file, b}, bits));
    }
    for (std::int64_t b = first; b <= last; ++b) {
      stack.touch({op.file, b}, reuse.at(static_cast<std::size_t>(b - first)));
    }
    if (last_buckets == nullptr || op.job != last_job) {
      auto [it, inserted] = per_job.try_emplace(op.job);
      if (inserted) it->second.assign(k + 1, 0);
      last_job = op.job;
      last_buckets = &it->second;
    }
    ++(*last_buckets)[worst];
  });

  // One result per capacity: a job's hits at capacity i are its requests in
  // buckets 0..i.  Jobs fold in JobId order (ordered map) through the same
  // ComputeCacheResult helpers as simulate_compute_cache, so every derived
  // double is bit-identical to the per-config replay's.
  std::vector<ComputeCacheResult> out(k);
  for (const auto& [job, buckets] : per_job) {
    std::uint64_t job_reads = 0;
    for (const std::uint64_t count : buckets) job_reads += count;
    std::uint64_t job_hits = 0;
    for (std::size_t i = 0; i < k; ++i) {
      job_hits += buckets[i];
      out[i].add_job(job_hits, job_reads);
    }
  }
  for (ComputeCacheResult& r : out) r.finalize_jobs();
  return out;
}

std::vector<IoNodeSimResult> stack_io_group(
    const ReplayLog& ops, const IoNodeSimConfig& shape,
    const std::vector<std::size_t>& per_node_buffers) {
  CHECK(shape.io_nodes >= 1, "need at least one I/O node");
  CHECK(shape.policy == Policy::kLru,
        "stack simulation requires the inclusion property (LRU only), got ",
        to_string(shape.policy));
  const std::size_t k = per_node_buffers.size();

  // One segmented stack per I/O node (blocks stripe round-robin), one §4.8
  // front-cache set shared by every capacity: the front setting is part of
  // the group key, so the filtered stream is the same for all of them.
  std::vector<SegmentedLruStack> nodes;
  nodes.reserve(static_cast<std::size_t>(shape.io_nodes));
  for (int i = 0; i < shape.io_nodes; ++i) nodes.emplace_back(per_node_buffers);
  PerNodeCaches front(shape.compute_buffers_per_node);
  std::uint64_t requests = 0;
  std::uint64_t block_accesses = 0;
  std::uint64_t filtered = 0;
  std::vector<std::uint64_t> request_buckets(k + 1, 0);
  std::vector<std::uint64_t> block_buckets(k + 1, 0);

  ops.for_each_with_reuse([&](const ReplayOp& op, BlockReuse reuse) {
    const auto [first, last] = span_of(op);

    if (shape.compute_buffers_per_node > 0 && op.is_read &&
        op.read_only_session && front.read(op, {first, last})) {
      ++filtered;
      return;  // never reaches the I/O nodes
    }

    ++requests;
    // The request is a hit in a capacity-C cache iff every touched block
    // hits, i.e. iff the worst block's bucket does.  Buckets are measured
    // access-by-access (not at request start): that is what the per-config
    // replay does, since each block access updates the cache before the
    // next block of the same request is looked up.
    std::size_t worst = 0;
    for (std::int64_t b = first; b <= last; ++b) {
      const std::size_t d =
          nodes[static_cast<std::size_t>(b % shape.io_nodes)].access(
              {op.file, b}, reuse.at(static_cast<std::size_t>(b - first)));
      ++block_accesses;
      ++block_buckets[d];
      worst = std::max(worst, d);
    }
    ++request_buckets[worst];
  });

  std::vector<IoNodeSimResult> out(k);
  std::uint64_t request_hits = 0;
  std::uint64_t block_hits = 0;
  for (std::size_t i = 0; i < k; ++i) {
    request_hits += request_buckets[i];
    block_hits += block_buckets[i];
    out[i].requests = requests;
    out[i].request_hits = request_hits;
    out[i].block_accesses = block_accesses;
    out[i].block_hits = block_hits;
    out[i].filtered_by_compute = filtered;
    out[i].finalize_rates();
  }
  return out;
}

std::vector<IoNodeSimResult> fifo_io_group(
    const ReplayLog& ops, const IoNodeSimConfig& shape,
    const std::vector<std::size_t>& per_node_buffers) {
  CHECK(shape.io_nodes >= 1, "need at least one I/O node");
  CHECK(shape.policy == Policy::kFifo,
        "the shared-hash group pass models FIFO only, got ",
        to_string(shape.policy));
  const std::size_t k = per_node_buffers.size();
  CHECK(k <= kMaxStampCapacities, "FIFO group pass is limited to ",
        kMaxStampCapacities, " capacities, got ", k);
  const auto io_nodes = static_cast<std::size_t>(shape.io_nodes);

  // FIFO never reorders on a hit, so an inserted block stays cached exactly
  // until `capacity` further insertions land on its (capacity, node) queue.
  // That makes eviction *implicit*: stamp each insertion with the queue's
  // running sequence number, and a block is present iff its stamp is within
  // the last `capacity` insertions.  Evictions never write anything, and one
  // probe of the shared table reaches every capacity's stamp for the block
  // (a block always stripes to the same I/O node, so its queues are fixed).
  // 32-bit stamps are safe: a queue sees at most one insertion per block
  // access, and traces are far below 2^32 block accesses per node.
  FifoSeqTable table(k);
  std::vector<std::uint32_t> insertions(k * io_nodes, 0);
  const auto live = [&](const BlockKey& key, const std::uint32_t* seq) {
    const std::uint32_t* ins =
        &insertions[static_cast<std::size_t>(key.block) % io_nodes * k];
    for (std::size_t c = 0; c < k; ++c) {
      if (seq[c] != 0 && ins[c] - seq[c] < per_node_buffers[c]) return true;
    }
    return false;
  };
  PerNodeCaches front(shape.compute_buffers_per_node);
  std::uint64_t requests = 0;
  std::uint64_t block_accesses = 0;
  std::uint64_t filtered = 0;
  std::vector<std::uint64_t> block_hits(k, 0);
  std::vector<std::uint64_t> request_hits(k, 0);

  ops.for_each_with_reuse([&](const ReplayOp& op, BlockReuse reuse) {
    const auto [first, last] = span_of(op);

    if (shape.compute_buffers_per_node > 0 && op.is_read &&
        op.read_only_session && front.read(op, {first, last})) {
      ++filtered;
      return;
    }

    ++requests;
    std::uint16_t request_mask = static_cast<std::uint16_t>((1u << k) - 1);
    for (std::int64_t b = first; b <= last; ++b) {
      ++block_accesses;
      std::uint32_t* ins =
          &insertions[static_cast<std::size_t>(b) % io_nodes * k];
      const unsigned bits = reuse.at(static_cast<std::size_t>(b - first));
      // A later reference needs stamps (fresh zero ones on a first
      // reference); a last reference only reads them; a block with neither
      // bit has no entry anyone reads.
      std::uint32_t* seq = nullptr;
      if ((bits & kReuseLater) != 0) {
        seq = table.at({op.file, b}, live);
      } else if ((bits & kReuseEarlier) != 0) {
        seq = table.find({op.file, b});
      }
      if (seq == nullptr) {  // cold everywhere: each queue takes an insertion
        request_mask = 0;
        for (std::size_t c = 0; c < k; ++c) {
          if (per_node_buffers[c] != 0) ++ins[c];
        }
        continue;
      }
      for (std::size_t c = 0; c < k; ++c) {
        // Stamp 0 means "never inserted"; a stale stamp (>= capacity
        // insertions ago) means the block has been implicitly evicted.
        if (seq[c] != 0 && ins[c] - seq[c] < per_node_buffers[c]) {
          ++block_hits[c];
          continue;  // FIFO: a hit leaves the cache untouched
        }
        request_mask &= static_cast<std::uint16_t>(~(1u << c));
        // A zero capacity never hits and never stores.
        if (per_node_buffers[c] != 0) seq[c] = ++ins[c];
      }
      // Last reference: retire the entry (compaction drops zero stamps).
      if ((bits & kReuseLater) == 0) std::fill_n(seq, k, 0u);
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (request_mask & (1u << c)) ++request_hits[c];
    }
  });

  std::vector<IoNodeSimResult> out(k);
  for (std::size_t c = 0; c < k; ++c) {
    out[c].requests = requests;
    out[c].request_hits = request_hits[c];
    out[c].block_accesses = block_accesses;
    out[c].block_hits = block_hits[c];
    out[c].filtered_by_compute = filtered;
    out[c].finalize_rates();
  }
  return out;
}

}  // namespace detail
}  // namespace charisma::cache
