// Event representation and the engine's pending-event queues.
//
// Determinism rules (shared by every queue and enforced by the engine's
// differential suites):
//   * time is integer microseconds (util::MicroSec);
//   * ties are broken by schedule order (a monotone sequence number), so a
//     (seed, config) pair always produces the identical event interleaving.
//
// Two implementations honor that contract:
//   * kBucketed (the engine's queue): a two-level calendar queue —
//     near-future events hash into fixed-width time buckets (each bucket a
//     small sorted run), far-future events wait in a sorted overflow band
//     and migrate into the bucket window when it advances.  O(1) amortized
//     per event instead of the binary heap's O(log n) on large pending sets.
//   * kReferenceHeap: the original binary heap, kept only as a test oracle
//     (tests/sim/engine_differential_test.cpp compares the two).
// Both yield events in exactly the same (at, seq) order.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_callback.hpp"
#include "util/units.hpp"

namespace charisma::sim {

using util::MicroSec;

enum class QueueKind : std::uint8_t { kBucketed, kReferenceHeap };

inline constexpr QueueKind kDefaultQueueKind = QueueKind::kBucketed;

/// One scheduled callback.  `seq` is assigned by the engine in schedule
/// order and is unique within a run.
struct Event {
  MicroSec at = 0;
  std::uint64_t seq = 0;
  InlineCallback fn;
};

/// Min-heap comparator: a comes after b in (at, seq) dispatch order.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// The two-level calendar queue.  Level 1: kBucketCount buckets of
/// kBucketWidth microseconds each, covering [window_start_, window_start_ +
/// kSpan); each bucket keeps its pending events sorted by (at, seq) from
/// `head` onward.  Level 2: a binary-heap overflow band for events at or
/// beyond the window, migrated bucket-ward when the window empties.
class CalendarQueue {
 public:
  static constexpr int kBucketShift = 7;  // 128 us per bucket
  static constexpr MicroSec kBucketWidth = MicroSec{1} << kBucketShift;
  // Span = 2.1 s of simulated time.  The window must comfortably cover
  // the workload's compute think times (hundreds of ms to ~1 s): every
  // event scheduled past the window takes a round trip through the
  // overflow binary heap, which costs more than the whole bucketed path.
  // 16384 bucket headers are 512 KiB — noise next to a study's trace.
  static constexpr std::size_t kBucketCount = 16384;
  static constexpr MicroSec kSpan =
      kBucketWidth * static_cast<MicroSec>(kBucketCount);

  CalendarQueue() : buckets_(kBucketCount), occupied_(kBucketCount / 64, 0) {}

  void push(Event&& ev);
  /// Earliest pending time; false when empty.  May advance the bucket
  /// cursor but never reorders or migrates events.
  [[nodiscard]] bool next_time(MicroSec* at);
  /// The (at, seq)-least event, left in place; queue must be non-empty.
  /// The pointer is invalidated by any push — callers move the callback
  /// out and call drop_front() before dispatching it.
  [[nodiscard]] Event* front();
  /// Removes the event front() returned; queue must be non-empty.
  void drop_front();
  [[nodiscard]] std::size_t size() const noexcept {
    return in_window_ + overflow_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  struct Bucket {
    std::vector<Event> events;  // sorted by (at, seq) from `head` on
    std::size_t head = 0;
  };

  void insert_in_window(Event&& ev);
  /// Rebases the window onto the earliest overflow event and moves every
  /// overflow event inside the new window into its bucket.
  void migrate_overflow();

  /// Index of the first live bucket at or after `from`; in_window_ must
  /// be non-zero.  One countr_zero step per 64 buckets, so sparse windows
  /// (an event, then hundreds of empty buckets of think time) cost a few
  /// word loads instead of a per-bucket walk.
  [[nodiscard]] std::size_t next_live_bucket(std::size_t from) const;

  std::vector<Bucket> buckets_;
  /// Bit b set iff buckets_[b] has pending events (head < events.size()).
  std::vector<std::uint64_t> occupied_;
  std::vector<Event> overflow_;  // min-heap under EventAfter
  MicroSec window_start_ = 0;    // multiple of kBucketWidth
  std::size_t cursor_ = 0;       // no non-empty bucket before this index
  std::size_t in_window_ = 0;
};

/// The engine's pending-event queue, of either kind, behind one
/// front/drop interface.
class EventQueue {
 public:
  explicit EventQueue(QueueKind kind = kDefaultQueueKind) : kind_(kind) {}

  [[nodiscard]] QueueKind kind() const noexcept { return kind_; }

  void push(Event&& ev) {
    if (kind_ == QueueKind::kBucketed) {
      calendar_.push(std::move(ev));
    } else {
      heap_push(std::move(ev));
    }
  }

  [[nodiscard]] bool next_time(MicroSec* at) {
    if (kind_ == QueueKind::kBucketed) return calendar_.next_time(at);
    if (heap_.empty()) return false;
    *at = heap_.front().at;
    return true;
  }

  /// The (at, seq)-least event, left in place; queue must be non-empty.
  /// Invalidated by any push — move the callback out and drop_front()
  /// before invoking it.
  [[nodiscard]] Event* front() {
    return kind_ == QueueKind::kBucketed ? calendar_.front() : &heap_.front();
  }

  void drop_front() {
    if (kind_ == QueueKind::kBucketed) {
      calendar_.drop_front();
    } else {
      heap_pop();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return kind_ == QueueKind::kBucketed ? calendar_.size() : heap_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  void heap_push(Event&& ev);
  void heap_pop();

  QueueKind kind_;
  CalendarQueue calendar_;
  std::vector<Event> heap_;  // min-heap under EventAfter
};

}  // namespace charisma::sim
