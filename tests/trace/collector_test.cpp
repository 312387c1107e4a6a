#include "trace/collector.hpp"

#include <gtest/gtest.h>

#include "raw_trace.hpp"
#include "trace/instrumented_client.hpp"
#include "util/check.hpp"

namespace charisma::trace {
namespace {

using fixtures::load;
using fixtures::RawTrace;

class CollectorTest : public ::testing::Test {
 protected:
  CollectorTest()
      : rng_(1), machine_(engine_, ipsc::MachineConfig::tiny(), rng_) {}

  /// A collector spilling to an anonymous file, as every study's does.
  static void spill(Collector& collector) {
    collector.start_spilling(SpillTarget::anonymous_in(""));
  }

  Record data_record(NodeId node) {
    Record r;
    r.kind = EventKind::kRead;
    r.node = node;
    r.job = 1;
    r.file = 1;
    r.bytes = 100;
    return r;
  }

  sim::Engine engine_;
  util::Rng rng_;
  ipsc::Machine machine_;
};

TEST_F(CollectorTest, BuffersUntilFragmentFull) {
  Collector collector(machine_);
  spill(collector);
  const std::size_t per_buffer = util::kBlockSize / Record::kEncodedSize;
  for (std::size_t i = 0; i + 1 < per_buffer; ++i) {
    collector.append(data_record(0));
  }
  EXPECT_EQ(collector.messages_to_collector(), 0u);
  collector.append(data_record(0));  // fills the buffer
  EXPECT_EQ(collector.messages_to_collector(), 1u);
  EXPECT_EQ(collector.records_seen(), per_buffer);
}

TEST_F(CollectorTest, UnbufferedSendsOneMessagePerRecord) {
  CollectorParams params;
  params.buffer_on_nodes = false;
  Collector collector(machine_, params);
  spill(collector);
  for (int i = 0; i < 10; ++i) collector.append(data_record(0));
  EXPECT_EQ(collector.messages_to_collector(), 10u);
}

TEST_F(CollectorTest, BufferingCutsMessagesByOver90Percent) {
  // The paper's §3.1 claim, as an invariant of the design.
  const std::size_t per_buffer = util::kBlockSize / Record::kEncodedSize;
  EXPECT_GT(per_buffer, 10u);  // >90% reduction when buffers fill
}

TEST_F(CollectorTest, RecordsCarryLocalClockTime) {
  Collector collector(machine_);
  spill(collector);
  engine_.run_until(1'000'000);
  collector.append(data_record(3));
  collector.flush_all();
  const RawTrace t = load(collector.take_spilled());
  ASSERT_EQ(t.record_count(), 1u);
  const MicroSec expected = machine_.clock(3).local_time(1'000'000);
  EXPECT_EQ(t.blocks[0].records[0].timestamp, expected);
}

TEST_F(CollectorTest, BlocksCarryDoubleTimestamps) {
  Collector collector(machine_);
  spill(collector);
  engine_.run_until(500'000);
  collector.append(data_record(5));
  collector.flush_all();
  const RawTrace t = load(collector.take_spilled());
  ASSERT_EQ(t.blocks.size(), 1u);
  EXPECT_EQ(t.blocks[0].node, 5);
  EXPECT_EQ(t.blocks[0].sent_local, machine_.clock(5).local_time(500'000));
  EXPECT_GT(t.blocks[0].recv_global, 500'000);  // network latency applied
}

TEST_F(CollectorTest, JobEventsBypassBuffersAndUseReferenceClock) {
  Collector collector(machine_);
  spill(collector);
  engine_.run_until(42'000);
  Record start;
  start.kind = EventKind::kJobStart;
  start.job = 9;
  start.node = 3;  // overridden: job events come from the service node
  start.aux = 16;
  collector.append_job_event(start);
  const RawTrace t = load(collector.take_spilled());
  ASSERT_EQ(t.record_count(), 1u);
  EXPECT_EQ(t.blocks[0].records[0].timestamp, 42'000);
  EXPECT_EQ(t.blocks[0].records[0].node, kServiceNode);
  EXPECT_EQ(t.blocks[0].sent_local, t.blocks[0].recv_global);
}

TEST_F(CollectorTest, FlushAllDrainsPartialBuffers) {
  Collector collector(machine_);
  spill(collector);
  collector.append(data_record(0));
  collector.append(data_record(1));
  collector.flush_all();
  const RawTrace t = load(collector.take_spilled());
  EXPECT_EQ(t.record_count(), 2u);
  EXPECT_EQ(t.blocks.size(), 2u);  // one partial block per node
}

TEST_F(CollectorTest, TraceBytesAccounted) {
  Collector collector(machine_);
  spill(collector);
  const std::size_t per_buffer = util::kBlockSize / Record::kEncodedSize;
  for (std::size_t i = 0; i < per_buffer * 20; ++i) {
    collector.append(data_record(static_cast<NodeId>(i % 4)));
  }
  collector.flush_all();
  EXPECT_GT(collector.trace_bytes_written(), 0);
  EXPECT_GT(collector.collector_cfs_writes(), 0u);
}

TEST_F(CollectorTest, RejectsUnknownNodes) {
  Collector collector(machine_);
  spill(collector);
  EXPECT_THROW(collector.append(data_record(1000)), util::CheckFailure);
}

TEST_F(CollectorTest, RecordsNeedSpillingStarted) {
  Collector collector(machine_);
  EXPECT_THROW(collector.append(data_record(0)), util::CheckFailure);
  EXPECT_THROW(collector.append_job_event(data_record(0)),
               util::CheckFailure);
  EXPECT_THROW((void)collector.take_spilled(), util::CheckFailure);
}

}  // namespace
}  // namespace charisma::trace
