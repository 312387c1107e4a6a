#include "net/message.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "net/hypercube.hpp"
#include "util/check.hpp"

namespace charisma::net {
namespace {

MessageCostParams simple_params() {
  MessageCostParams p;
  p.software_overhead = 100;
  p.per_fragment = 10;
  p.per_hop = 2;
  p.per_byte = 0.5;
  p.fragment_bytes = 4096;
  return p;
}

TEST(MessageModel, FragmentCounts) {
  const MessageModel m(simple_params());
  EXPECT_EQ(m.fragments(0), 1);      // empty message still one fragment
  EXPECT_EQ(m.fragments(1), 1);
  EXPECT_EQ(m.fragments(4096), 1);
  EXPECT_EQ(m.fragments(4097), 2);
  EXPECT_EQ(m.fragments(3 * 4096), 3);
}

TEST(MessageModel, TransferTimeComposition) {
  const MessageModel m(simple_params());
  // 0 hops, 0 bytes: overhead + 1 fragment.
  EXPECT_EQ(m.transfer_time_hops(0, 0), 100 + 10);
  // 3 hops, 1000 bytes: + 3*2 hops + 500 byte time.
  EXPECT_EQ(m.transfer_time_hops(3, 1000), 100 + 10 + 6 + 500);
  // Two fragments.
  EXPECT_EQ(m.transfer_time_hops(1, 8192), 100 + 20 + 2 + 4096);
}

TEST(MessageModel, MonotoneInSizeAndDistance) {
  const Hypercube cube(7);
  const MessageModel m;
  MicroSec prev = 0;
  for (std::int64_t bytes : {0LL, 100LL, 4096LL, 100000LL, 1000000LL}) {
    const MicroSec t = m.transfer_time_hops(cube.hops(0, 127), bytes);
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_LT(m.transfer_time_hops(cube.hops(0, 1), 1000),
            m.transfer_time_hops(cube.hops(0, 127), 1000));
}

TEST(MessageModel, ExplicitHops) {
  const MessageModel m(simple_params());
  EXPECT_EQ(m.transfer_time_hops(4, 0), 100 + 10 + 8);
  EXPECT_THROW((void)m.transfer_time_hops(-1, 0), util::CheckFailure);
  EXPECT_THROW((void)m.transfer_time_hops(0, -5), util::CheckFailure);
}

TEST(MessageModel, DefaultsApproximateIpsc) {
  const Hypercube cube(7);
  const MessageModel m;
  // A 4 KB block across the machine should take on the order of 1-2 ms
  // (~2.8 MB/s links), not microseconds or seconds.
  const MicroSec t = m.transfer_time_hops(cube.hops(0, 127), 4096);
  EXPECT_GT(t, 500);
  EXPECT_LT(t, 5000);
}

TEST(MessageModel, TableMatchesFormula) {
  // Payloads up to a block plus a descriptor come from a table; every
  // entry, and the formula just past it, must equal the cost model's sum.
  for (const MessageCostParams& p : {MessageCostParams{}, simple_params()}) {
    const MessageModel m(p);
    const std::int64_t table_end =
        util::kBlockSize + MessageModel::kDescriptorBytes;
    for (std::int64_t bytes = 0; bytes <= table_end + 100; ++bytes) {
      for (int hops = 0; hops <= 8; hops += 4) {
        const MicroSec expected =
            p.software_overhead + m.fragments(bytes) * p.per_fragment +
            hops * p.per_hop +
            std::llround(p.per_byte * static_cast<double>(bytes));
        ASSERT_EQ(m.transfer_time_hops(hops, bytes), expected)
            << bytes << " bytes over " << hops << " hops";
      }
    }
  }
}

TEST(MessageModel, RejectsEmptyFragments) {
  MessageCostParams p;
  p.fragment_bytes = 0;
  EXPECT_THROW(MessageModel{p}, util::CheckFailure);
}

}  // namespace
}  // namespace charisma::net
