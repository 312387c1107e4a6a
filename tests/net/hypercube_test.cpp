#include "net/hypercube.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "util/check.hpp"

namespace charisma::net {
namespace {

TEST(Hypercube, BasicProperties) {
  const Hypercube cube(7);
  EXPECT_EQ(cube.dimension(), 7);
  EXPECT_EQ(cube.node_count(), 128);
  EXPECT_TRUE(cube.contains(0));
  EXPECT_TRUE(cube.contains(127));
  EXPECT_FALSE(cube.contains(128));
  EXPECT_FALSE(cube.contains(-1));
}

TEST(Hypercube, DimensionZeroIsSingleNode) {
  const Hypercube cube(0);
  EXPECT_EQ(cube.node_count(), 1);
  EXPECT_EQ(cube.hops(0, 0), 0);
  EXPECT_EQ(cube.route(0, 0), std::vector<NodeId>{0});
}

TEST(Hypercube, HopsIsHammingDistance) {
  const Hypercube cube(7);
  EXPECT_EQ(cube.hops(0, 0), 0);
  EXPECT_EQ(cube.hops(0, 1), 1);
  EXPECT_EQ(cube.hops(0, 127), 7);
  EXPECT_EQ(cube.hops(0b1010101, 0b0101010), 7);
  EXPECT_EQ(cube.hops(5, 6), 2);
}

TEST(Hypercube, HopsIsSymmetric) {
  const Hypercube cube(5);
  for (NodeId a = 0; a < 32; a += 3) {
    for (NodeId b = 0; b < 32; b += 5) {
      EXPECT_EQ(cube.hops(a, b), cube.hops(b, a));
    }
  }
}

TEST(Hypercube, NeighborFlipsOneBit) {
  const Hypercube cube(4);
  EXPECT_EQ(cube.neighbor(0, 0), 1);
  EXPECT_EQ(cube.neighbor(0, 3), 8);
  EXPECT_EQ(cube.neighbor(cube.neighbor(5, 2), 2), 5);  // involution
  EXPECT_TRUE(cube.are_neighbors(4, 5));
  EXPECT_FALSE(cube.are_neighbors(4, 7));
  EXPECT_THROW((void)cube.neighbor(0, 4), util::CheckFailure);
}

TEST(Hypercube, DimensionFor) {
  EXPECT_EQ(Hypercube::dimension_for(1), 0);
  EXPECT_EQ(Hypercube::dimension_for(2), 1);
  EXPECT_EQ(Hypercube::dimension_for(3), 2);
  EXPECT_EQ(Hypercube::dimension_for(128), 7);
  EXPECT_EQ(Hypercube::dimension_for(129), 8);
  EXPECT_THROW(Hypercube::dimension_for(0), util::CheckFailure);
}

TEST(Hypercube, OutOfRangeThrows) {
  const Hypercube cube(3);
  EXPECT_THROW((void)cube.hops(0, 8), util::CheckFailure);
  EXPECT_THROW((void)cube.route(-1, 0), util::CheckFailure);
  EXPECT_THROW(Hypercube(-1), util::CheckFailure);
  EXPECT_THROW(Hypercube(21), util::CheckFailure);
}

class RouteProperty
    : public ::testing::TestWithParam<std::pair<NodeId, NodeId>> {};

TEST_P(RouteProperty, EcubeRouteIsValidAndMinimal) {
  const Hypercube cube(7);
  const auto [from, to] = GetParam();
  const auto path = cube.route(from, to);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), from);
  EXPECT_EQ(path.back(), to);
  EXPECT_EQ(static_cast<int>(path.size()) - 1, cube.hops(from, to));
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_TRUE(cube.are_neighbors(path[i - 1], path[i]));
  }
  // E-cube corrects dimensions lowest-first: flipped bits ascend.
  int last_dim = -1;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const int dim = std::countr_zero(
        static_cast<std::uint32_t>(path[i - 1] ^ path[i]));
    EXPECT_GT(dim, last_dim);
    last_dim = dim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, RouteProperty,
    ::testing::Values(std::make_pair(0, 0), std::make_pair(0, 127),
                      std::make_pair(127, 0), std::make_pair(5, 80),
                      std::make_pair(64, 63), std::make_pair(100, 37),
                      std::make_pair(1, 2)));

TEST(Hypercube, RouteIntoMatchesRoute) {
  const Hypercube cube(7);
  std::vector<NodeId> scratch;
  for (const auto& [from, to] :
       {std::make_pair(0, 0), std::make_pair(0, 127), std::make_pair(5, 80),
        std::make_pair(100, 37)}) {
    const int hops = cube.route_into(from, to, scratch);
    EXPECT_EQ(hops, cube.hops(from, to));
    EXPECT_EQ(scratch, cube.route(from, to));
  }
}

TEST(Hypercube, RouteIntoReusesCapacity) {
  const Hypercube cube(7);
  std::vector<NodeId> scratch;
  (void)cube.route_into(0, 127, scratch);  // longest route: 8 entries
  const auto cap = scratch.capacity();
  ASSERT_GE(cap, 8u);
  (void)cube.route_into(1, 2, scratch);  // shorter route, same buffer
  EXPECT_EQ(scratch.size(), 3u);
  EXPECT_EQ(scratch.capacity(), cap);
}

TEST(Hypercube, RoutePreReservesExactly) {
  const Hypercube cube(7);
  const auto path = cube.route(0, 127);
  EXPECT_EQ(path.size(), 8u);
  // route() reserves hops+1 up front, so no growth doubling happened.
  EXPECT_EQ(path.capacity(), 8u);
}

}  // namespace
}  // namespace charisma::net
