#include "cfs/io_node.hpp"

#include <gtest/gtest.h>

namespace charisma::cfs {
namespace {

disk::DiskParams fast_disk() {
  disk::DiskParams p;
  p.average_seek = 1000;
  p.rotation = 800;
  p.bytes_per_us = 10.0;
  p.controller_overhead = 10;
  return p;
}

TEST(IoNode, NoCacheAlwaysGoesToDisk) {
  disk::Disk d(fast_disk());
  IoNode node(0, d);
  (void)node.serve_read(0, 0, 100);
  (void)node.serve_read(100000, 0, 100);
  (void)node.serve_write(200000, 0, 100);
  EXPECT_EQ(node.requests(), 3u);
  EXPECT_EQ(node.cache_hits(), 0u);
  EXPECT_EQ(node.disk_reads(), 2u);
  EXPECT_EQ(node.disk_writes(), 1u);
  EXPECT_EQ(d.bytes_moved(), 300);  // only the requested bytes
}

TEST(IoNode, ConcurrentRequestsQueueAtDisk) {
  disk::Disk d(fast_disk());
  IoNode node(0, d);
  const MicroSec c1 = node.serve_read(0, 0, 4096);
  const MicroSec c2 = node.serve_read(0, 100 * 4096, 4096);
  EXPECT_GT(c2, c1);  // second waits for the first's disk service
}

}  // namespace
}  // namespace charisma::cfs
