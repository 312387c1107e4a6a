#include "net/hypercube.hpp"

#include <bit>

#include "util/check.hpp"

namespace charisma::net {

Hypercube::Hypercube(int dimension) : dimension_(dimension) {
  CHECK(dimension >= 0 && dimension <= kMaxDimension,
        "hypercube dimension out of range");
}

int Hypercube::hops(NodeId from, NodeId to) const {
  CHECK(contains(from) && contains(to), "node id out of range");
  return std::popcount(static_cast<std::uint32_t>(from ^ to));
}

int Hypercube::dimension_for(NodeId nodes) {
  CHECK(nodes >= 1, "need at least one node");
  int d = 0;
  while ((NodeId{1} << d) < nodes) ++d;
  return d;
}

}  // namespace charisma::net
