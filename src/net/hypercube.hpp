// Hypercube interconnect topology (the iPSC/860 network).
//
// Nodes are numbered 0 .. 2^d - 1; two nodes are neighbors iff their ids
// differ in exactly one bit.  Messages follow e-cube (dimension-ordered)
// routes, which is what the iPSC's Direct-Connect modules implemented, so a
// route's length is the Hamming distance between its endpoints.
#pragma once

#include <cstdint>

namespace charisma::net {

using NodeId = std::int32_t;

class Hypercube {
 public:
  /// The largest dimension a cube takes: 2^20 nodes.
  static constexpr int kMaxDimension = 20;

  /// A hypercube of the given dimension (0 <= dimension <= kMaxDimension).
  explicit Hypercube(int dimension);

  [[nodiscard]] int dimension() const noexcept { return dimension_; }
  [[nodiscard]] NodeId node_count() const noexcept {
    return NodeId{1} << dimension_;
  }
  [[nodiscard]] bool contains(NodeId n) const noexcept {
    return n >= 0 && n < node_count();
  }

  /// Number of links on the e-cube route (Hamming distance).  This is the
  /// only routing query the timing model needs: MessageModel and the
  /// machine's tap arithmetic price messages from the hop count alone.
  [[nodiscard]] int hops(NodeId from, NodeId to) const;

  /// Smallest dimension whose cube holds at least `nodes` nodes.
  static int dimension_for(NodeId nodes);

 private:
  int dimension_;
};

}  // namespace charisma::net
