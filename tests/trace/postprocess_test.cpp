#include "trace/postprocess.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "raw_trace.hpp"
#include "sim/clock.hpp"
#include "study_records.hpp"
#include "util/rng.hpp"

namespace charisma::trace {
namespace {

using fixtures::RawTrace;
using fixtures::resident;

/// `t`'s records through the postprocessing merge, collected.
std::vector<Record> merged(const RawTrace& t) {
  fixtures::CollectSink sink;
  (void)stream_postprocess(resident(t), {&sink});
  return std::move(sink.records);
}

/// Counts the pairs of events that `estimated_times` orders (stably)
/// against `true_times` — the postprocessing quality metric.  0 when the
/// sizes differ.
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

/// Builds a trace whose records were stamped by drifting clocks, with
/// block double-timestamps, returning the true times alongside.
struct SyntheticTrace {
  RawTrace trace;
  std::vector<MicroSec> true_times;  // one per record, block order
};

SyntheticTrace make_drifted_trace(std::uint64_t seed, int nodes,
                                  int blocks_per_node,
                                  int records_per_block) {
  util::Rng rng(seed);
  SyntheticTrace out;
  std::vector<sim::DriftingClock> clocks;
  clocks.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    clocks.push_back(sim::DriftingClock::random(rng, 0, 150.0, 2000));
  }
  constexpr MicroSec kLatency = 300;
  // All nodes are active over the SAME window, so their records genuinely
  // interleave; by late in the window the clock drift (1e8 us * 150 ppm ~
  // 15 ms) dwarfs the inter-record spacing and scrambles the raw order.
  for (int b = 0; b < blocks_per_node; ++b) {
    for (int n = 0; n < nodes; ++n) {
      TraceBlock block;
      block.node = n;
      MicroSec t = static_cast<MicroSec>(b) * records_per_block * 2000 +
                   n * 40;
      for (int i = 0; i < records_per_block; ++i) {
        t += 500 + static_cast<MicroSec>(rng.uniform(1500));
        Record r;
        r.kind = EventKind::kRead;
        r.node = n;
        r.job = 1;
        r.file = 1;
        // Stretch the whole experiment across a long window so drift
        // accumulates: scale true time up by 1000.
        const MicroSec true_t = t * 1000;
        r.timestamp = clocks[static_cast<std::size_t>(n)].local_time(true_t);
        block.records.push_back(r);
        out.true_times.push_back(true_t);
      }
      block.sent_local =
          clocks[static_cast<std::size_t>(n)].local_time(t * 1000 + 10);
      block.recv_global = t * 1000 + 10 + kLatency;
      out.trace.blocks.push_back(std::move(block));
    }
  }
  return out;
}

TEST(FitClocks, RecoversDriftAndOffset) {
  const auto synth = make_drifted_trace(7, 4, 50, 10);
  const auto fits = fit_clocks(resident(synth.trace));
  ASSERT_EQ(fits.size(), 4u);
  for (const auto& [node, fit] : fits) {
    // Linear fit should land very close to the inverse of the clock model.
    EXPECT_NEAR(fit.scale, 1.0, 5e-4) << "node " << node;
    EXPECT_EQ(fit.samples, 50u);
  }
}

TEST(FitClocks, SingleBlockFallsBackToOffset) {
  RawTrace t;
  TraceBlock b;
  b.node = 0;
  b.sent_local = 1000;
  b.recv_global = 1500;
  t.blocks.push_back(b);
  const auto fits = fit_clocks(resident(t));
  ASSERT_EQ(fits.count(0), 1u);
  EXPECT_DOUBLE_EQ(fits.at(0).scale, 1.0);
  EXPECT_DOUBLE_EQ(fits.at(0).offset, 500.0);
}

TEST(FitClocks, DegenerateSamplesKeepUnitScale) {
  RawTrace t;
  for (int i = 0; i < 3; ++i) {
    TraceBlock b;
    b.node = 0;
    b.sent_local = 1000;  // all at the same instant
    b.recv_global = 1200;
    t.blocks.push_back(b);
  }
  const auto fits = fit_clocks(resident(t));
  EXPECT_DOUBLE_EQ(fits.at(0).scale, 1.0);
}

TEST(Postprocess, OutputIsChronologicallySorted) {
  const auto synth = make_drifted_trace(11, 6, 30, 8);
  const std::vector<Record> sorted = merged(synth.trace);
  EXPECT_EQ(sorted.size(), synth.trace.record_count());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].timestamp, sorted[i].timestamp);
  }
}

TEST(Postprocess, CorrectionReducesOrderInversions) {
  const auto synth = make_drifted_trace(13, 8, 40, 10);
  // Raw (uncorrected) timestamps vs corrected ones, against true times.
  std::vector<MicroSec> raw;
  for (const auto& b : synth.trace.blocks) {
    for (const auto& r : b.records) raw.push_back(r.timestamp);
  }
  const auto fits = fit_clocks(resident(synth.trace));
  std::vector<MicroSec> corrected;
  for (const auto& b : synth.trace.blocks) {
    for (const auto& r : b.records) {
      corrected.push_back(fits.at(b.node).apply(r.timestamp));
    }
  }
  const auto raw_inv = count_order_inversions(synth.true_times, raw);
  const auto fixed_inv = count_order_inversions(synth.true_times, corrected);
  EXPECT_LT(fixed_inv, raw_inv / 4) << "raw=" << raw_inv
                                    << " corrected=" << fixed_inv;
}

TEST(Postprocess, ServiceNodeRecordsStayExact) {
  const auto synth = make_drifted_trace(17, 3, 10, 4);
  RawTrace t = synth.trace;
  TraceBlock job;
  job.node = kServiceNode;
  job.sent_local = 123456;
  job.recv_global = 123456;
  Record r;
  r.kind = EventKind::kJobStart;
  r.node = kServiceNode;
  r.timestamp = 123456;
  job.records.push_back(r);
  t.blocks.push_back(job);
  bool found = false;
  for (const auto& rec : merged(t)) {
    if (rec.kind == EventKind::kJobStart) {
      EXPECT_EQ(rec.timestamp, 123456);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CountOrderInversions, KnownCases) {
  EXPECT_EQ(count_order_inversions({1, 2, 3}, {10, 20, 30}), 0u);
  EXPECT_EQ(count_order_inversions({1, 2, 3}, {30, 20, 10}), 3u);
  EXPECT_EQ(count_order_inversions({1, 2, 3}, {10, 30, 20}), 1u);
  EXPECT_EQ(count_order_inversions({}, {}), 0u);
  EXPECT_EQ(count_order_inversions({1}, {1}), 0u);
  EXPECT_EQ(count_order_inversions({1, 2}, {1}), 0u);  // size mismatch -> 0
}

TEST(ClockFit, ApplyIsAffine) {
  ClockFit fit;
  fit.scale = 1.0001;
  fit.offset = -250.0;
  EXPECT_EQ(fit.apply(0), -250);
  EXPECT_EQ(fit.apply(1'000'000), static_cast<MicroSec>(
                                      std::llround(1.0001 * 1e6 - 250)));
}

}  // namespace
}  // namespace charisma::trace
