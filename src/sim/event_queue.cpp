#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.hpp"

namespace charisma::sim {

namespace {

/// Orders events ascending by (at, seq) for the in-bucket sorted runs.
struct Earlier {
  bool operator()(const std::pair<MicroSec, std::uint64_t>& key,
                  const auto& ev) const noexcept {
    return key.first != ev.at ? key.first < ev.at : key.second < ev.seq;
  }
};

}  // namespace

// ---- CalendarQueue ---------------------------------------------------------

void CalendarQueue::insert_in_window(Event&& ev) {
  const auto idx = static_cast<std::size_t>((ev.at - window_start_) >>
                                            kBucketShift);
  DCHECK(idx < kBucketCount, "bucket index ", idx, " out of range");
  Bucket& b = buckets_[idx];
  if (b.head >= b.events.size()) {
    occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  // Keep [head, end) sorted by (at, seq).  seq grows monotonically, so the
  // dominant schedule pattern (same or later timestamps) appends at the
  // end; test for that with one compare before paying for upper_bound.
  if (b.events.empty() || !Earlier{}(std::make_pair(ev.at, ev.seq),
                                     b.events.back())) {
    b.events.push_back(std::move(ev));
  } else {
    const auto pos = std::upper_bound(
        b.events.begin() + static_cast<std::ptrdiff_t>(b.head),
        b.events.end(), std::make_pair(ev.at, ev.seq), Earlier{});
    b.events.insert(pos, std::move(ev));
  }
  ++in_window_;
  // A peek may already have advanced the cursor past this bucket; pull it
  // back so the new event is not skipped.
  cursor_ = std::min(cursor_, idx);
}

void CalendarQueue::push(Event&& ev) {
  if (ev.at < window_start_ + kSpan) {
    // The engine guarantees ev.at >= now() >= window_start_.
    insert_in_window(std::move(ev));
  } else {
    overflow_.push_back(std::move(ev));
    std::push_heap(overflow_.begin(), overflow_.end(), EventAfter{});
  }
}

void CalendarQueue::migrate_overflow() {
  DCHECK(in_window_ == 0 && !overflow_.empty(),
         "migration needs an empty window and a populated overflow band");
  // Rebase the window onto the earliest far event.  The caller pops that
  // event immediately, so simulated time catches up to window_start_ before
  // any schedule_at can target the gap below it.
  window_start_ =
      (overflow_.front().at >> kBucketShift) << kBucketShift;
  cursor_ = 0;
  const MicroSec window_end = window_start_ + kSpan;
  while (!overflow_.empty() && overflow_.front().at < window_end) {
    std::pop_heap(overflow_.begin(), overflow_.end(), EventAfter{});
    insert_in_window(std::move(overflow_.back()));
    overflow_.pop_back();
  }
}

std::size_t CalendarQueue::next_live_bucket(std::size_t from) const {
  std::size_t w = from >> 6;
  std::uint64_t word = occupied_[w] >> (from & 63);
  if (word != 0) return from + static_cast<std::size_t>(std::countr_zero(word));
  do {
    ++w;
    DCHECK(w < occupied_.size(), "window count out of sync");
  } while (occupied_[w] == 0);
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(occupied_[w]));
}

bool CalendarQueue::next_time(MicroSec* at) {
  if (in_window_ > 0) {
    cursor_ = next_live_bucket(cursor_);
    const Bucket& b = buckets_[cursor_];
    *at = b.events[b.head].at;
    return true;
  }
  if (!overflow_.empty()) {
    *at = overflow_.front().at;
    return true;
  }
  return false;
}

Event* CalendarQueue::front() {
  if (in_window_ == 0) migrate_overflow();
  // migrate_overflow guarantees at least one in-window event, so the scan
  // always lands on a live bucket.
  cursor_ = next_live_bucket(cursor_);
  Bucket& b = buckets_[cursor_];
  return &b.events[b.head];
}

void CalendarQueue::drop_front() {
  Bucket& b = buckets_[cursor_];
  DCHECK(b.head < b.events.size(), "drop_front() without a front event");
  ++b.head;
  --in_window_;
  if (b.head == b.events.size()) {
    b.events.clear();  // keeps capacity for the next window lap
    b.head = 0;
    occupied_[cursor_ >> 6] &= ~(std::uint64_t{1} << (cursor_ & 63));
  }
}

// ---- EventQueue ------------------------------------------------------------

void EventQueue::heap_push(Event&& ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
}

void EventQueue::heap_pop() {
  DCHECK(!heap_.empty(), "drop_front() on an empty heap");
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  heap_.pop_back();
}

}  // namespace charisma::sim
