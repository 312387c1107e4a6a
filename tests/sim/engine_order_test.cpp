// Dispatch-order test for the engine's event queue, with a sort as oracle.
//
// The engine stamps each schedule with a unique, growing seq, so (at, seq)
// is a total order, and a correct queue dispatches every event in exactly
// that order: an event scheduled after another was dispatched cannot sort
// before it, because schedule_at forbids the past and seq only grows.  Each
// scenario below logs every schedule as (at, id) — ids count schedules from
// 0, so they equal the engine's seq — and requires the dispatch log to equal
// the schedule log stably sorted by time.  A full study at scale 0.05 is then
// pinned to its digest and event counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/stream_study.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace charisma::sim {
namespace {

/// (time, schedule id) pairs.
using Log = std::vector<std::pair<MicroSec, int>>;

struct OrderLog {
  Log scheduled;   // in schedule order
  Log dispatched;  // in dispatch order

  /// Schedules a logged event at `at` that runs `then` after logging its
  /// dispatch.
  template <typename F>
  void schedule_at(Engine& e, MicroSec at, F then) {
    const int id = static_cast<int>(scheduled.size());
    scheduled.emplace_back(at, id);
    e.schedule_at(at, [this, &e, id, then] {
      dispatched.emplace_back(e.now(), id);
      then();
    });
  }
  void schedule_at(Engine& e, MicroSec at) {
    schedule_at(e, at, [] {});
  }

  /// The schedule log stably sorted by time: the one order in which a
  /// correct queue dispatches it.
  [[nodiscard]] Log sorted() const {
    Log out = scheduled;
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    return out;
  }

  /// The prefix of sorted() that run_until(deadline) must have dispatched.
  [[nodiscard]] Log sorted_through(MicroSec deadline) const {
    Log out = sorted();
    out.erase(std::find_if(out.begin(), out.end(),
                           [deadline](const auto& entry) {
                             return entry.first > deadline;
                           }),
              out.end());
    return out;
  }
};

// A deterministic pseudo-random schedule: same-time bursts, scheduling
// during dispatch (at now() and later), and events seconds ahead.  The RNG is
// consumed during dispatch, so a misordered dispatch also changes the rest
// of the schedule.
class RandomSchedule {
 public:
  RandomSchedule(std::uint64_t seed, int budget)
      : rng_(seed), budget_(budget) {}

  const OrderLog& run() {
    for (int burst = 0; burst < 8; ++burst) {
      const auto at = static_cast<MicroSec>(rng_.uniform(2000));
      for (int j = 0; j < 5; ++j) spawn(at);
    }
    for (int i = 0; i < 64; ++i) {
      spawn(static_cast<MicroSec>(rng_.uniform(2'000'000)));
    }
    engine_.run();
    return log_;
  }

  [[nodiscard]] const Engine& engine() const { return engine_; }

 private:
  void spawn(MicroSec at) {
    log_.schedule_at(engine_, at, [this] { fire(); });
  }

  void fire() {
    if (static_cast<int>(log_.scheduled.size()) >= budget_) return;
    const std::uint64_t children = rng_.uniform(3);
    for (std::uint64_t c = 0; c < children; ++c) {
      MicroSec delay;
      const std::uint64_t kind = rng_.uniform(10);
      if (kind < 5) {
        delay = static_cast<MicroSec>(rng_.uniform(256));
      } else if (kind < 8) {
        delay = static_cast<MicroSec>(rng_.uniform(20'000));
      } else {
        delay = 300'000 + static_cast<MicroSec>(rng_.uniform(3'000'000));
      }
      spawn(engine_.now() + delay);
    }
    if (rng_.chance(0.1)) {
      // Same-timestamp burst scheduled during dispatch (at == now()).
      for (int j = 0; j < 3; ++j) spawn(engine_.now());
    }
  }

  Engine engine_;
  util::Rng rng_;
  OrderLog log_;
  int budget_;
};

TEST(EngineOrder, RandomSchedulesDispatchInSortedScheduleOrder) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 987'654'321ULL}) {
    RandomSchedule schedule(seed, 4000);
    const OrderLog& log = schedule.run();
    const Log sorted = log.sorted();
    ASSERT_GT(sorted.size(), 100u) << "schedule too small to mean anything";
    const auto ties = std::adjacent_find(
        sorted.begin(), sorted.end(),
        [](const auto& a, const auto& b) { return a.first == b.first; });
    ASSERT_NE(ties, sorted.end()) << "no same-time events for seed " << seed;
    ASSERT_EQ(log.dispatched, sorted) << "dispatch order for seed " << seed;
    EXPECT_EQ(schedule.engine().dispatched_events(), sorted.size());
    EXPECT_EQ(schedule.engine().pending_events(), 0u);
    EXPECT_EQ(schedule.engine().now(), sorted.back().first);
  }
}

TEST(EngineOrder, RunUntilDispatchesTheSortedPrefix) {
  // Deadlines before, exactly on and between event times; scheduling at
  // now() after a run_until; and a far event that outlives nearer ones.
  // The later events go in first, so the same-time burst lands in several
  // heap levels.
  Engine e;
  OrderLog log;
  const auto run_until = [&e, &log](MicroSec deadline) {
    e.run_until(deadline);
    const Log prefix = log.sorted_through(deadline);
    EXPECT_EQ(log.dispatched, prefix) << "run_until(" << deadline << ")";
    EXPECT_EQ(e.pending_events(), log.scheduled.size() - prefix.size())
        << "run_until(" << deadline << ")";
    EXPECT_EQ(e.now(), deadline);
  };
  log.schedule_at(e, 500'000);
  log.schedule_at(e, 101);
  for (int i = 0; i < 4; ++i) log.schedule_at(e, 100);
  run_until(99);  // peeks but dispatches nothing
  run_until(100);  // the burst fires; 101 stays queued
  log.schedule_at(e, 100);  // == now()
  run_until(101);
  // Only the far event remains; add a nearer one, then drain.
  log.schedule_at(e, 200'000);
  run_until(499'999);
  e.run();
  EXPECT_EQ(log.dispatched, log.sorted());
  EXPECT_EQ(e.now(), 500'000);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(EngineOrder, FarFutureOnlySchedulesDispatchInSortedOrder) {
  // Events a second and more ahead, a third of them rescheduling themselves
  // past later ones.
  Engine e;
  OrderLog log;
  for (int i = 0; i < 40; ++i) {
    const auto at = static_cast<MicroSec>(1'000'000 + 270'000 * i);
    if (i % 3 == 0) {
      log.schedule_at(e, at, [&log, &e] {
        log.schedule_at(e, e.now() + 650'000);
      });
    } else {
      log.schedule_at(e, at);
    }
  }
  e.run();
  EXPECT_EQ(log.scheduled.size(), 54u);
  EXPECT_EQ(log.dispatched, log.sorted());
}

/// Events that each schedule 0, 1 or 2 follow-ups (by id), checking the
/// pending count on entry and after every schedule.
class FollowUps {
 public:
  explicit FollowUps(int budget) : budget_(budget) {}

  void spawn(MicroSec at) {
    log.schedule_at(engine, at, [this] { fire(); });
    EXPECT_EQ(engine.pending_events(), pending()) << "after a schedule";
  }

  /// Events scheduled and not yet dispatched (the dispatching one is out).
  [[nodiscard]] std::size_t pending() const {
    return log.scheduled.size() - log.dispatched.size();
  }

  Engine engine;
  OrderLog log;

 private:
  void fire() {
    EXPECT_EQ(engine.pending_events(), pending()) << "inside a callback";
    const int id = log.dispatched.back().second;
    if (static_cast<int>(log.scheduled.size()) >= budget_) return;
    // Delays before, among and past the pending events, and at now().
    for (int child = 0; child < id % 3; ++child) {
      spawn(engine.now() + (id * 7919 + child * 104'729) % 5000);
    }
  }

  int budget_;
};

TEST(EngineOrder, PendingEventsCountedInsideCallbacks) {
  FollowUps f(200);
  for (int i = 0; i < 12; ++i) f.spawn(100 * (i % 4));
  f.engine.run();
  EXPECT_EQ(f.engine.pending_events(), 0u);
  EXPECT_EQ(f.engine.dispatched_events(), f.log.scheduled.size());
}

TEST(EngineOrder, CallbacksSchedulingZeroOneOrTwoEventsDispatchInOrder) {
  // A callback that schedules one event fills the root its pop left vacant;
  // one that schedules none leaves the vacancy to the next pop; one that
  // schedules two fills it and then sifts up.
  FollowUps f(3000);
  for (int i = 0; i < 30; ++i) f.spawn(37 * i);
  f.engine.run();
  ASSERT_GT(f.log.scheduled.size(), 1000u);
  EXPECT_EQ(f.log.dispatched, f.log.sorted());
}

TEST(EngineOrder, ThrowingCallbackLeavesTheQueueConsistent) {
  // A callback that throws before, between or after its schedules: the
  // engine stops, pending_events() counts what is left, and a further
  // run() dispatches the rest in (at, seq) order.
  for (int children = 0; children <= 2; ++children) {
    SCOPED_TRACE(children);
    Engine e;
    OrderLog log;
    for (const MicroSec at : {40, 10, 30, 20, 20, 50, 30, 60}) {
      if (at == 20 && log.scheduled.size() == 3) {
        log.schedule_at(e, at, [&log, &e, children] {
          for (int c = 0; c < children; ++c) {
            log.schedule_at(e, e.now() + 15 * (c + 1));
          }
          CHECK(false, "callback failed at ", e.now());
        });
      } else {
        log.schedule_at(e, at);
      }
    }
    EXPECT_THROW(e.run(), util::CheckFailure);
    EXPECT_EQ(e.now(), 20);
    EXPECT_EQ(log.dispatched.size(), 2u);  // 10, then the first 20 throws
    EXPECT_EQ(e.pending_events(),
              log.scheduled.size() - log.dispatched.size());
    e.run();
    EXPECT_EQ(log.dispatched, log.sorted());
    EXPECT_EQ(e.pending_events(), 0u);
    EXPECT_EQ(e.dispatched_events(), log.scheduled.size());
  }
}

TEST(EngineOrder, PinnedStudyAtScale005) {
  core::StudyConfig config;
  config.workload.scale = 0.05;
  config.workload.seed = 42;
  const core::StreamedStudyOutput out = core::run_streamed_study(config);

  EXPECT_EQ(out.trace_digest, 0x314938b6bcfec01eULL);
  EXPECT_EQ(out.events_dispatched, 1'664'769u);
  EXPECT_EQ(out.sim_end, 29'795'240'340);
  EXPECT_EQ(out.records, 447'011u);

  // CI's perf-smoke job cross-checks bench/perf_study against this run:
  // export CHARISMA_DIGEST_OUT=<path> and the digest lands on its first
  // line, in the same 0x%016llx format perf_study writes into
  // BENCH_study.json, with the event count (perf_study's
  // events_dispatched) on the second.
  if (const char* path = std::getenv("CHARISMA_DIGEST_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << "cannot write digest to " << path;
    std::fprintf(f, "0x%016llx\n%llu\n",
                 static_cast<unsigned long long>(out.trace_digest),
                 static_cast<unsigned long long>(out.events_dispatched));
    std::fclose(f);
  }
}

}  // namespace
}  // namespace charisma::sim
