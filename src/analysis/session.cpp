#include "analysis/session.hpp"

#include <algorithm>
#include <unordered_map>

namespace charisma::analysis {

const char* to_string(AccessClass c) noexcept {
  switch (c) {
    case AccessClass::kUntouched: return "untouched";
    case AccessClass::kReadOnly: return "read-only";
    case AccessClass::kWriteOnly: return "write-only";
    case AccessClass::kReadWrite: return "read-write";
  }
  return "?";
}

AccessClass FileSession::access_class() const noexcept {
  if (reads > 0 && writes > 0) return AccessClass::kReadWrite;
  if (reads > 0) return AccessClass::kReadOnly;
  if (writes > 0) return AccessClass::kWriteOnly;
  return AccessClass::kUntouched;
}

void merge_range(std::vector<ByteRange>& ranges, ByteRange r) {
  if (r.end <= r.begin) return;
  // Fast path: extends or follows the last range (the dominant sequential
  // case).
  if (!ranges.empty() && r.begin >= ranges.back().begin) {
    if (r.begin <= ranges.back().end) {
      ranges.back().end = std::max(ranges.back().end, r.end);
      return;
    }
    ranges.push_back(r);
    return;
  }
  // General case: find insertion point and coalesce.
  auto it = std::lower_bound(
      ranges.begin(), ranges.end(), r,
      [](const ByteRange& a, const ByteRange& b) { return a.begin < b.begin; });
  it = ranges.insert(it, r);
  // Coalesce left.
  if (it != ranges.begin()) {
    auto prev = std::prev(it);
    if (prev->end >= it->begin) {
      prev->end = std::max(prev->end, it->end);
      it = ranges.erase(it);
      it = std::prev(it);
    }
  }
  // Coalesce right.
  auto next = std::next(it);
  while (next != ranges.end() && it->end >= next->begin) {
    it->end = std::max(it->end, next->end);
    next = ranges.erase(next);
  }
}

std::int64_t bytes_covered_by_at_least(
    const std::vector<const std::vector<ByteRange>*>& coverages, int k) {
  // Sweep over range endpoints counting active coverages.
  struct Edge {
    std::int64_t x;
    int delta;
  };
  std::vector<Edge> edges;
  for (const auto* cov : coverages) {
    for (const auto& r : *cov) {
      edges.push_back({r.begin, +1});
      edges.push_back({r.end, -1});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.x != b.x ? a.x < b.x : a.delta > b.delta;
  });
  std::int64_t covered = 0;
  int active = 0;
  std::int64_t last_x = 0;
  for (const auto& e : edges) {
    if (active >= k) covered += e.x - last_x;
    last_x = e.x;
    active += e.delta;
  }
  return covered;
}

namespace detail {

/// SessionAccumulator's state.  Feed it records in trace order (per
/// session); it owns the grown session list.
class SessionBuilder {
 public:
  void add(const Record& r) {
    switch (r.kind) {
      case EventKind::kJobStart:
      case EventKind::kJobEnd: {
        JobEvent e;
        e.job = r.job;
        e.time = r.timestamp;
        e.nodes = static_cast<std::int32_t>(r.aux);
        e.start = r.kind == EventKind::kJobStart;
        job_events_.push_back(e);
        break;
      }
      case EventKind::kOpen: {
        const std::size_t si = session_of(r);
        FileSession& s = sessions_[si];
        s.mode = trace::open_mode(r.aux);
        if (r.bytes != 0) s.created_here = true;
        ++s.total_opens;
        const int now_open = ++open_now_[si];
        s.max_concurrent_opens = std::max(s.max_concurrent_opens, now_open);
        s.per_node.try_emplace(r.node);
        break;
      }
      case EventKind::kClose: {
        const std::size_t si = session_of(r);
        FileSession& s = sessions_[si];
        auto& n = open_now_[si];
        if (n > 0) --n;
        s.size_at_close = r.aux;
        s.last_close = r.timestamp;
        break;
      }
      case EventKind::kRead:
      case EventKind::kWrite: {
        FileSession& s = sessions_[session_of(r)];
        const bool is_read = r.kind == EventKind::kRead;
        if (is_read) {
          ++s.reads;
          s.bytes_read += r.bytes;
        } else {
          ++s.writes;
          s.bytes_written += r.bytes;
        }
        s.request_sizes.insert(r.bytes);
        auto& ns = s.per_node[r.node];
        if (ns.requests > 0) {
          if (r.offset > ns.last_offset) ++ns.sequential;
          if (r.offset == ns.last_end) ++ns.consecutive;
          s.interval_sizes.insert(r.offset - ns.last_end);
        }
        ++ns.requests;
        ns.last_offset = r.offset;
        ns.last_end = r.offset + r.bytes;
        merge_range(ns.coverage, {r.offset, r.offset + r.bytes});
        break;
      }
      case EventKind::kSeek:
        break;  // repositioning shows up in the next request's offset
      case EventKind::kDelete: {
        sessions_[session_of(r)].deleted_here = true;
        break;
      }
    }
  }

  /// Drops coverage for single-node sessions (memory) and hands out the
  /// accumulated state.
  void finish() {
    for (auto& s : sessions_) {
      if (s.per_node.size() <= 1) {
        for (auto& [node, ns] : s.per_node) {
          ns.coverage.clear();
          ns.coverage.shrink_to_fit();
        }
      }
    }
  }

  std::vector<FileSession>& sessions() { return sessions_; }
  std::vector<JobEvent>& job_events() { return job_events_; }

 private:
  std::size_t session_of(const Record& r) {
    const auto key = std::make_pair(r.job, r.file);
    const auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    index_.emplace(key, sessions_.size());
    FileSession s;
    s.job = r.job;
    s.file = r.file;
    s.first_open = r.timestamp;
    sessions_.push_back(std::move(s));
    return sessions_.size() - 1;
  }

  std::vector<FileSession> sessions_;
  std::vector<JobEvent> job_events_;
  std::map<std::pair<JobId, FileId>, std::size_t> index_;
  std::unordered_map<std::size_t, int> open_now_;
};

}  // namespace detail

SessionAccumulator::SessionAccumulator()
    : builder_(std::make_unique<detail::SessionBuilder>()) {}

SessionAccumulator::~SessionAccumulator() = default;

void SessionAccumulator::on_record(const Record& r) { builder_->add(r); }

SessionStore SessionAccumulator::take(const trace::TraceHeader& header) {
  builder_->finish();
  SessionStore store;
  store.start_ = header.trace_start;
  store.end_ = header.trace_end;
  store.sessions_ = std::move(builder_->sessions());
  store.job_events_ = std::move(builder_->job_events());
  return store;
}

std::set<std::pair<JobId, FileId>> SessionStore::read_only_sessions() const {
  std::set<std::pair<JobId, FileId>> out;
  for (const auto& s : sessions_) {
    if (s.access_class() == AccessClass::kReadOnly) {
      out.emplace(s.job, s.file);
    }
  }
  return out;
}

}  // namespace charisma::analysis
