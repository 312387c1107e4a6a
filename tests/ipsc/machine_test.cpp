#include "ipsc/machine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "util/check.hpp"

namespace charisma::ipsc {
namespace {

TEST(MachineConfig, NasAmesPreset) {
  const auto c = MachineConfig::nas_ames();
  EXPECT_EQ(c.compute_nodes, 128);
  EXPECT_EQ(c.io_nodes, 10);
  EXPECT_EQ(c.disk.capacity_bytes, 760 * util::kMiB);
}

TEST(Machine, BuildsNasMachine) {
  sim::Engine engine;
  util::Rng rng(1);
  Machine m(engine, MachineConfig::nas_ames(), rng);
  EXPECT_EQ(m.compute_nodes(), 128);
  EXPECT_EQ(m.io_nodes(), 10);
  EXPECT_EQ(m.cube().dimension(), 7);
}

TEST(Machine, IoTapsSpreadOverCube) {
  sim::Engine engine;
  util::Rng rng(1);
  Machine m(engine, MachineConfig::nas_ames(), rng);
  EXPECT_EQ(m.io_tap(0), 0);
  EXPECT_EQ(m.io_tap(1), 12);
  EXPECT_EQ(m.io_tap(9), 108);
  for (int i = 0; i < m.io_nodes(); ++i) {
    EXPECT_TRUE(m.cube().contains(m.io_tap(i)));
  }
  EXPECT_THROW((void)m.io_tap(10), util::CheckFailure);
}

TEST(Machine, ClocksDriftDifferently) {
  sim::Engine engine;
  util::Rng rng(2);
  Machine m(engine, MachineConfig::nas_ames(), rng);
  int distinct = 0;
  const double first = m.clock(0).drift_ppm();
  for (net::NodeId n = 1; n < 128; ++n) {
    if (m.clock(n).drift_ppm() != first) ++distinct;
  }
  EXPECT_GT(distinct, 100);
  EXPECT_THROW((void)m.clock(128), util::CheckFailure);
}

TEST(Machine, SameSeedSameClocks) {
  sim::Engine e1, e2;
  util::Rng r1(7), r2(7);
  Machine m1(e1, MachineConfig::tiny(), r1);
  Machine m2(e2, MachineConfig::tiny(), r2);
  for (net::NodeId n = 0; n < m1.compute_nodes(); ++n) {
    EXPECT_EQ(m1.clock(n).drift_ppm(), m2.clock(n).drift_ppm());
  }
}

TEST(Machine, IoLatencyIncludesTapHop) {
  sim::Engine engine;
  util::Rng rng(3);
  Machine m(engine, MachineConfig::nas_ames(), rng);
  // From the tap node itself, the cube route is 0 hops, plus the tap link.
  const auto at_tap = m.compute_to_io(m.io_tap(3), 3, 0);
  const auto one_away =
      m.compute_to_io(m.io_tap(3) ^ 1, 3, 0);
  EXPECT_LT(at_tap, one_away);
}

TEST(Machine, IoHopTableMatchesTapDistance) {
  // compute_to_io reads its hop count from a table built once; every
  // (compute node, I/O node) pair must price as the cube route to the tap
  // plus the tap hop.
  for (const MachineConfig& config :
       {MachineConfig::nas_ames(), MachineConfig::tiny()}) {
    sim::Engine engine;
    util::Rng rng(3);
    Machine m(engine, config, rng);
    for (net::NodeId from = 0; from < m.compute_nodes(); ++from) {
      for (int io = 0; io < m.io_nodes(); ++io) {
        const int hops =
            std::popcount(static_cast<std::uint32_t>(from ^ m.io_tap(io))) +
            1;
        for (const std::int64_t bytes : {0, 64, 4096, 4160, 100000}) {
          ASSERT_EQ(m.compute_to_io(from, io, bytes),
                    m.messages().transfer_time_hops(hops, bytes))
              << from << " -> I/O node " << io << ", " << bytes << " bytes";
        }
      }
    }
    EXPECT_THROW((void)m.compute_to_io(m.compute_nodes(), 0, 0),
                 util::CheckFailure);
    EXPECT_THROW((void)m.compute_to_io(0, m.io_nodes(), 0),
                 util::CheckFailure);
    EXPECT_THROW((void)m.compute_to_io(-1, 0, 0), util::CheckFailure);
  }
}

TEST(Machine, ServiceTrafficRoutesThroughTapZero) {
  sim::Engine engine;
  util::Rng rng(4);
  Machine m(engine, MachineConfig::nas_ames(), rng);
  EXPECT_EQ(m.service_tap(), 0);
  EXPECT_LT(m.compute_to_service(0, 4096), m.compute_to_service(127, 4096));
}

TEST(Machine, DisksAreIndependent) {
  sim::Engine engine;
  util::Rng rng(5);
  Machine m(engine, MachineConfig::tiny(), rng);
  (void)m.disk(0).submit(0, 0, 1000);
  EXPECT_EQ(m.disk(0).requests(), 1u);
  EXPECT_EQ(m.disk(1).requests(), 0u);
  EXPECT_THROW((void)m.disk(2), util::CheckFailure);
}

TEST(Machine, RejectsBadConfigs) {
  sim::Engine engine;
  util::Rng rng(6);
  MachineConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 8;  // more I/O nodes than taps
  EXPECT_THROW(Machine(engine, c, rng), util::CheckFailure);
  c.io_nodes = 0;
  EXPECT_THROW(Machine(engine, c, rng), util::CheckFailure);
}

}  // namespace
}  // namespace charisma::ipsc
