#include "net/hypercube.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

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
  EXPECT_THROW((void)cube.hops(0, 1), util::CheckFailure);
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
  // Neighbors (ids one bit apart) are exactly the pairs one hop apart.
  const Hypercube cube(4);
  for (NodeId n = 0; n < cube.node_count(); ++n) {
    for (int dim = 0; dim < cube.dimension(); ++dim) {
      EXPECT_EQ(cube.hops(n, n ^ (NodeId{1} << dim)), 1);
    }
  }
  EXPECT_EQ(cube.hops(4, 5), 1);
  EXPECT_EQ(cube.hops(4, 7), 2);
  EXPECT_THROW((void)cube.hops(0, NodeId{1} << 4), util::CheckFailure);
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
  EXPECT_THROW((void)cube.hops(-1, 0), util::CheckFailure);
  EXPECT_THROW(Hypercube(-1), util::CheckFailure);
  EXPECT_THROW(Hypercube(21), util::CheckFailure);
}

class RouteProperty
    : public ::testing::TestWithParam<std::pair<NodeId, NodeId>> {};

/// The e-cube route, endpoints included: differing bits are corrected from
/// the lowest dimension upward.
std::vector<NodeId> ecube_route(const Hypercube& cube, NodeId from, NodeId to) {
  std::vector<NodeId> path{from};
  NodeId cur = from;
  for (int dim = 0; dim < cube.dimension(); ++dim) {
    const NodeId bit = NodeId{1} << dim;
    if ((cur ^ to) & bit) {
      cur ^= bit;
      path.push_back(cur);
    }
  }
  return path;
}

TEST_P(RouteProperty, EcubeRouteIsValidAndMinimal) {
  // hops() prices the e-cube route the hardware takes: a walk of
  // single-link steps in ascending dimension whose length is hops().
  const Hypercube cube(7);
  const auto [from, to] = GetParam();
  const auto path = ecube_route(cube, from, to);
  EXPECT_EQ(path.back(), to);
  EXPECT_EQ(static_cast<int>(path.size()) - 1, cube.hops(from, to));
  int last_dim = -1;
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_EQ(cube.hops(path[i - 1], path[i]), 1);
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

}  // namespace
}  // namespace charisma::net
