// Strided I/O demo (paper §5): the same interleaved access expressed as a
// seek/read loop versus one strided request, comparing messages and
// simulated latency — the argument the paper closes with.
//
//   strided_io [--nodes=16] [--record=512]
//
// A value that is not a number, a --nodes outside [1, 128] (the machine's
// compute nodes) or a --record that leaves a node no whole record of the
// 2 MiB grid prints usage and exits 2.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "cfs/client.hpp"
#include "util/flags.hpp"

using namespace charisma;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, {"nodes", "record"});
  const std::optional<std::int64_t> nodes = flags.try_get_int("nodes", 16);
  const std::optional<std::int64_t> record = flags.try_get_int("record", 512);
  const std::int64_t grid_bytes = 2 * util::kMiB;
  if (!nodes || *nodes < 1 ||
      *nodes > ipsc::MachineConfig::nas_ames().compute_nodes || !record ||
      *record < 1 || *record > grid_bytes / *nodes) {
    std::fprintf(stderr, "usage: strided_io [--nodes=1..128] "
                         "[--record=1..2MiB/nodes]\n");
    return 2;
  }
  const auto P = static_cast<std::int32_t>(*nodes);
  const std::int64_t rec = *record;

  sim::Engine engine;
  util::Rng rng(3);
  ipsc::Machine machine(engine, ipsc::MachineConfig::nas_ames(), rng);
  cfs::Runtime cfs(machine);

  // Stage a shared grid.
  {
    cfs::Client staging(cfs, 0);
    auto g = staging.open(1, "mesh.g", cfs::kWrite | cfs::kCreate,
                          cfs::IoMode::kIndependent);
    (void)staging.write(g.fd, grid_bytes);
    (void)staging.close(g.fd);
  }
  const std::int64_t records = grid_bytes / rec;
  const std::int64_t per_node = records / P;

  // --- Conventional: every node seek/reads its records one by one. ------
  std::vector<std::unique_ptr<cfs::Client>> loop_clients;
  util::MicroSec loop_done = engine.now();
  std::uint64_t loop_messages = 0;
  for (std::int32_t n = 0; n < P; ++n) {
    loop_clients.push_back(std::make_unique<cfs::Client>(cfs, n));
    cfs::Client& c = *loop_clients.back();
    auto g = c.open(2, "mesh.g", cfs::kRead, cfs::IoMode::kIndependent);
    (void)c.seek(g.fd, n * rec, cfs::Whence::kSet);
    for (std::int64_t k = 0; k < per_node; ++k) {
      const auto r = c.read(g.fd, rec);
      if (!r.ok || r.bytes == 0) break;
      loop_done = std::max(loop_done, r.completed_at);
      (void)c.seek(g.fd, (P - 1) * rec, cfs::Whence::kCurrent);
    }
    (void)c.close(g.fd);
    loop_messages += c.io_messages();
  }
  const util::MicroSec loop_elapsed = loop_done - engine.now();
  engine.run_until(loop_done);

  // --- Strided: every node issues ONE request for the same pattern. -----
  std::vector<std::unique_ptr<cfs::Client>> strided_clients;
  util::MicroSec strided_done = engine.now();
  std::uint64_t strided_messages = 0;
  const util::MicroSec t1 = engine.now();
  for (std::int32_t n = 0; n < P; ++n) {
    strided_clients.push_back(std::make_unique<cfs::Client>(cfs, n));
    cfs::Client& c = *strided_clients.back();
    auto g = c.open(3, "mesh.g", cfs::kRead, cfs::IoMode::kIndependent);
    (void)c.seek(g.fd, n * rec, cfs::Whence::kSet);
    const auto r = c.read_strided(g.fd, rec, (P - 1) * rec, per_node);
    strided_done = std::max(strided_done, r.completed_at);
    (void)c.close(g.fd);
    strided_messages += c.io_messages();
  }
  const util::MicroSec strided_elapsed = strided_done - t1;

  std::printf("interleaved read of %s by %d nodes (record %lld B):\n\n",
              util::format_bytes(grid_bytes).c_str(), P,
              static_cast<long long>(rec));
  std::printf("  conventional loop: %llu I/O messages, finished in %s\n",
              static_cast<unsigned long long>(loop_messages),
              util::format_duration(loop_elapsed).c_str());
  std::printf("  strided requests:  %llu I/O messages, finished in %s\n",
              static_cast<unsigned long long>(strided_messages),
              util::format_duration(strided_elapsed).c_str());
  std::printf(
      "\n\"A strided request can express a regular request and interval "
      "size ... effectively increasing the request size [and] lowering "
      "overhead.\" (S5)\n");
  return 0;
}
