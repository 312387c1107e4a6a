#include "sim/inline_callback.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <utility>

namespace charisma::sim {
namespace {

TEST(InlineCallback, SmallCapturesStayInline) {
  int hits = 0;
  int* p = &hits;
  InlineCallback cb([p] { ++*p; });
  EXPECT_TRUE(static_cast<bool>(cb));
  EXPECT_TRUE(cb.is_inline());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, DriverStepShapedCaptureStaysInline) {
  // The hot-path closure: [this, run, rank] — two pointers and an int32.
  // The whole point of the type is that this never heap-allocates.
  struct Driver {
    int steps = 0;
  } driver;
  struct JobRun {
  } run;
  std::int32_t rank = 7;
  InlineCallback cb([d = &driver, r = &run, rank] {
    (void)r;
    d->steps += rank;
  });
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(driver.steps, 7);
}

TEST(InlineCallback, CapturesUpToTheBudgetStayInline) {
  std::array<char, InlineCallback::kInlineSize> payload{};
  payload[0] = 42;
  InlineCallback cb([payload] { EXPECT_EQ(payload[0], 42); });
  EXPECT_TRUE(cb.is_inline());
  cb();
}

TEST(InlineCallback, OversizedCapturesFallBackToTheHeap) {
  std::array<char, InlineCallback::kInlineSize + 1> payload{};
  payload.back() = 9;
  int seen = 0;
  InlineCallback cb([payload, &seen] { seen = payload.back(); });
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(seen, 9);
}

TEST(InlineCallback, ThrowingMoveGoesToTheHeapEvenWhenSmall) {
  // Inline storage relocates with a move constructor during the event
  // slab's growth, so a potentially-throwing move may not live in the buffer.
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  static_assert(sizeof(ThrowingMove) <= InlineCallback::kInlineSize);
  InlineCallback cb{ThrowingMove{}};
  EXPECT_FALSE(cb.is_inline());
  cb();
}

TEST(InlineCallback, MoveConstructionTransfersTheTarget) {
  auto token = std::make_shared<int>(5);
  InlineCallback a([token] { EXPECT_EQ(*token, 5); });
  EXPECT_EQ(token.use_count(), 2);
  InlineCallback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(token.use_count(), 2) << "move must not duplicate the capture";
  b();
}

TEST(InlineCallback, MoveAssignmentDestroysTheOldTarget) {
  auto old_token = std::make_shared<int>(1);
  auto new_token = std::make_shared<int>(2);
  InlineCallback a([old_token] {});
  InlineCallback b([new_token] {});
  EXPECT_EQ(old_token.use_count(), 2);
  a = std::move(b);
  EXPECT_EQ(old_token.use_count(), 1) << "old target must be destroyed";
  EXPECT_EQ(new_token.use_count(), 2);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
}

TEST(InlineCallback, DestructionReleasesHeapTargets) {
  auto token = std::make_shared<int>(0);
  std::array<char, InlineCallback::kInlineSize> padding{};
  {
    InlineCallback cb([token, padding] { (void)padding; });
    EXPECT_FALSE(cb.is_inline());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, CopiesFromAnLvalueStdFunction) {
  // The engine's recursion idiom re-schedules a named std::function by copy;
  // the implicit converting constructor must accept that lvalue.
  int calls = 0;
  std::function<void()> fn = [&calls] { ++calls; };
  InlineCallback first(fn);
  InlineCallback second(fn);
  first();
  second();
  EXPECT_EQ(calls, 2);
}

TEST(InlineCallback, DefaultConstructedIsEmpty) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_FALSE(cb.is_inline());
}

}  // namespace
}  // namespace charisma::sim
