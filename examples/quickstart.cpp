// Quickstart: build the simulated iPSC/860, mount CFS, and do parallel
// file I/O from a few compute nodes — the library's "hello world".
#include <cstdio>

#include "cfs/client.hpp"

using namespace charisma;

int main() {
  // 1. A machine: event engine + the NAS Ames iPSC/860 (128 compute nodes,
  //    10 I/O nodes with one 760 MB disk each).
  sim::Engine engine;
  util::Rng rng(/*seed=*/1);
  ipsc::Machine machine(engine, ipsc::MachineConfig::nas_ames(), rng);

  // 2. The Concurrent File System over the machine's I/O nodes.
  cfs::Runtime cfs(machine);

  // 3. Clients: one per compute node, as on the real machine.
  cfs::Client node0(cfs, 0);
  cfs::Client node1(cfs, 1);

  // Node 0 writes a result file...
  const cfs::JobId job = 1;
  auto out = node0.open(job, "results/run1.q", cfs::kWrite | cfs::kCreate,
                        cfs::IoMode::kIndependent);
  if (!out.ok) {
    std::fprintf(stderr, "open failed: %s\n", cfs::to_string(out.error));
    return 1;
  }
  for (int record = 0; record < 100; ++record) {
    const auto w = node0.write(out.fd, 1024);
    if (!w.ok) {
      std::fprintf(stderr, "write failed: %s\n", cfs::to_string(w.error));
      return 1;
    }
    // Calls are synchronous in simulated time: block until completion.
    engine.run_until(w.completed_at);
  }
  const auto size = node0.close(out.fd);
  std::printf("node 0 wrote %lld bytes (now t=%s)\n",
              static_cast<long long>(size.value_or(0)),
              util::format_duration(engine.now()).c_str());

  // ...and node 1 reads it back, striped across all ten disks.
  auto in = node1.open(job, "results/run1.q", cfs::kRead,
                       cfs::IoMode::kIndependent);
  std::int64_t total = 0;
  for (;;) {
    const auto r = node1.read(in.fd, 4096);
    if (!r.ok || r.bytes == 0) break;
    total += r.bytes;
    engine.run_until(r.completed_at);
  }
  node1.close(in.fd);
  std::printf("node 1 read %lld bytes back through %d I/O nodes\n",
              static_cast<long long>(total), machine.io_nodes());

  // The striping is visible in the per-disk counters.
  for (int d = 0; d < machine.io_nodes(); ++d) {
    std::printf("  disk %d moved %s\n", d,
                util::format_bytes(machine.disk(d).bytes_moved()).c_str());
  }
  std::printf("simulated time elapsed: %s\n",
              util::format_duration(engine.now()).c_str());
  return 0;
}
