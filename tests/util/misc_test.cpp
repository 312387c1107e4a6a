// Tests for thread pool, units formatting, table rendering, flags, check.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace charisma::util {
namespace {

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    (void)pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  // Audited: per-index atomic slots; no iteration shares state.
  // NOLINTNEXTLINE(charisma-shared-capture)
  parallel_for(pool, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndOneElement) {
  ThreadPool pool(2);
  int calls = 0;
  // Audited: zero iterations — the body never runs.
  // NOLINTNEXTLINE(charisma-shared-capture)
  parallel_for(pool, 0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Audited: a single iteration cannot race with itself.
  // NOLINTNEXTLINE(charisma-shared-capture)
  parallel_for(pool, 1, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 8,
                            [](std::size_t i) {
                              if (i == 3) throw std::logic_error("x");
                            }),
               std::logic_error);
}

// ---- units ---------------------------------------------------------------

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1024), "1.0 KB");
  EXPECT_EQ(format_bytes(1536), "1.5 KB");
  EXPECT_EQ(format_bytes(kMiB), "1.0 MB");
  EXPECT_EQ(format_bytes(3 * kGiB), "3.0 GB");
  EXPECT_EQ(format_bytes(-2048), "-2.0 KB");
}

TEST(Units, FormatDuration) {
  EXPECT_EQ(format_duration(5), "5us");
  EXPECT_EQ(format_duration(1500), "1.5ms");
  EXPECT_EQ(format_duration(2 * kSecond), "2.0s");
  EXPECT_EQ(format_duration(90 * kSecond), "1m 30s");
  EXPECT_EQ(format_duration(3 * kHour + 7 * kMinute), "3h 7m");
}

TEST(Units, FormatPercent) {
  EXPECT_EQ(format_percent(0.123), "12.3%");
  EXPECT_EQ(format_percent(1.0), "100.0%");
}

// ---- Table -----------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("|     1 |"), std::string::npos);  // numeric right-aligned
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| x |"), std::string::npos);
}

TEST(Table, RuleInsertsSeparator) {
  Table t({"h"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.render();
  // header rule + top + bottom + mid-rule = 4 horizontal rules.
  std::size_t rules = 0, pos = 0;
  while ((pos = s.find("+--", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(TableFmt, Precision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0), "2.0");
}

// ---- Flags ------------------------------------------------------------------

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--scale=0.5", "--seed=99", "--verbose",
                        "leftover"};
  Flags flags(5, const_cast<char**>(argv), {"scale", "seed", "verbose"});
  EXPECT_EQ(flags.try_get_double("scale", 1.0), std::optional<double>(0.5));
  EXPECT_EQ(flags.get_int("seed", 0), 99);
  EXPECT_EQ(flags.try_get_bool("verbose", false), std::optional<bool>(true));
  ASSERT_EQ(flags.remaining_argc(), 2);
  EXPECT_STREQ(flags.remaining()[1], "leftover");
}

TEST(Flags, UnknownFlagsStayInRemaining) {
  const char* argv[] = {"prog", "--benchmark_filter=abc"};
  Flags flags(2, const_cast<char**>(argv), {"scale"});
  EXPECT_FALSE(flags.has("benchmark_filter"));
  EXPECT_EQ(flags.remaining_argc(), 2);
}

TEST(Flags, Defaults) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv), {"scale"});
  EXPECT_EQ(flags.get("scale", "x"), "x");
  EXPECT_EQ(flags.try_get_double("scale", 2.5), std::optional<double>(2.5));
  EXPECT_EQ(flags.try_get_int("scale", 7), std::optional<std::int64_t>(7));
  EXPECT_EQ(flags.try_get_bool("scale", false), std::optional<bool>(false));
  EXPECT_EQ(flags.try_get_bool("scale", true), std::optional<bool>(true));
}

TEST(Flags, BooleansTakeOnlyKnownValues) {
  const char* argv[] = {"prog",     "--a=true", "--b=1",     "--c=yes",
                        "--d=false", "--e=0",   "--f=no",    "--g=2",
                        "--h=maybe", "--i=",    "--j=TRUE"};
  Flags flags(11, const_cast<char**>(argv),
              {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"});
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_EQ(flags.try_get_bool(key, false), std::optional<bool>(true))
        << key;
  }
  for (const char* key : {"d", "e", "f"}) {
    EXPECT_EQ(flags.try_get_bool(key, true), std::optional<bool>(false))
        << key;
  }
  for (const char* key : {"g", "h", "i", "j"}) {
    EXPECT_FALSE(flags.try_get_bool(key, false).has_value()) << key;
  }
}

TEST(Flags, NumbersMustBeWholeAndFinite) {
  EXPECT_EQ(parse_number<std::int64_t>("-12"),
            std::optional<std::int64_t>(-12));
  EXPECT_EQ(parse_number<double>("0.25"), std::optional<double>(0.25));
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::optional<std::uint64_t>(18446744073709551615ULL));
  for (const char* bad : {"", "abc", "12x", "0.2x", " 1", "+1", "1 "}) {
    EXPECT_FALSE(parse_number<std::int64_t>(bad)) << '"' << bad << '"';
    EXPECT_FALSE(parse_number<double>(bad)) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_number<std::int64_t>("1.5"));
  EXPECT_FALSE(parse_number<std::int64_t>("99999999999999999999"));
  EXPECT_FALSE(parse_number<std::uint64_t>("-1"));
  for (const char* bad : {"inf", "-inf", "nan", "1e999"}) {
    EXPECT_FALSE(parse_number<double>(bad)) << bad;
  }

  const char* argv[] = {"prog", "--scale=0.2x", "--seed=12x", "--threads=3"};
  Flags flags(4, const_cast<char**>(argv), {"scale", "seed", "threads"});
  EXPECT_FALSE(flags.try_get_double("scale", 1.0));
  EXPECT_FALSE(flags.try_get_int("seed", 42));
  EXPECT_EQ(flags.try_get_int("threads", 0), std::optional<std::int64_t>(3));
  EXPECT_THROW((void)flags.get_int("seed", 42), CheckFailure);
}

// ---- check -----------------------------------------------------------------

TEST(Check, ThrowsWithLocation) {
  EXPECT_NO_THROW(CHECK(true, "fine"));
  try {
    CHECK(false, "broken invariant");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("misc_test"), std::string::npos);
  }
}

TEST(Check, MacroStreamsValuesIntoMessage) {
  const int got = 7;
  const int want = 9;
  EXPECT_NO_THROW(CHECK(got < want));
  try {
    CHECK(got == want, "got ", got, " but wanted ", want);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("got == want"), std::string::npos) << what;
    EXPECT_NE(what.find("got 7 but wanted 9"), std::string::npos) << what;
    EXPECT_NE(what.find("misc_test"), std::string::npos) << what;
  }
}

TEST(Check, MacroWithoutMessageStillNamesExpression) {
  try {
    CHECK(1 + 1 == 3);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("1 + 1 == 3"), std::string::npos);
  }
}

TEST(Check, DcheckMatchesBuildMode) {
  int evaluations = 0;
  const auto touch = [&evaluations] {
    ++evaluations;
    return false;
  };
  (void)touch;  // unreferenced when DCHECK compiles out
#if CHARISMA_DCHECK_IS_ON
  EXPECT_THROW(DCHECK(touch(), "debug audit"), CheckFailure);
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_NO_THROW(DCHECK(touch(), "debug audit"));
  EXPECT_EQ(evaluations, 0);  // compiled out: the condition is not evaluated
#endif
}

}  // namespace
}  // namespace charisma::util
