#include "cfs/runtime.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace charisma::cfs {
namespace {

TEST(Runtime, MatchesMachineTopology) {
  sim::Engine engine;
  util::Rng rng(1);
  ipsc::Machine machine(engine, ipsc::MachineConfig::nas_ames(), rng);
  RuntimeParams params;
  params.fs.io_nodes = 3;  // deliberately wrong; the runtime overrides it
  Runtime runtime(machine, params);
  EXPECT_EQ(runtime.io_node_count(), 10);
  EXPECT_EQ(runtime.fs().params().io_nodes, 10);
  EXPECT_EQ(runtime.fs().params().disk_capacity,
            machine.config().disk.capacity_bytes);
  EXPECT_THROW((void)runtime.io_node(10), util::CheckFailure);
  EXPECT_THROW((void)runtime.io_node(-1), util::CheckFailure);
  EXPECT_EQ(runtime.io_node(3).id(), 3);
}

}  // namespace
}  // namespace charisma::cfs
