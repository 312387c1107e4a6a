// The tiered store behind both spills (trace blocks and replay-op chunks):
// the tier decision and its budget charge, the sticky overflow, the disk
// tier's layout, and reads back from either tier — alone, from several
// threads on one descriptor, and over an existing file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace/spill.hpp"

namespace charisma::trace {
namespace {

/// Unit `i`'s bytes: `size` bytes of a pattern keyed by `i`.
std::vector<std::uint8_t> unit_bytes(std::size_t i, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t k = 0; k < size; ++k) {
    bytes[k] = static_cast<std::uint8_t>(i * 131 + k * 7);
  }
  return bytes;
}

struct Stored {
  SpillLocation at;
  std::size_t size = 0;
};

/// Appends one unit per entry of `sizes`, unit i filled with unit_bytes(i),
/// each charging `overhead` on top of its bytes.
std::vector<Stored> append_units(SpillStore& store,
                                 const std::vector<std::size_t>& sizes,
                                 std::int64_t overhead) {
  std::vector<Stored> units;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const SpillStore::Slot slot = store.append(sizes[i], overhead);
    const std::vector<std::uint8_t> bytes = unit_bytes(i, sizes[i]);
    if (!bytes.empty()) std::memcpy(slot.bytes, bytes.data(), bytes.size());
    units.push_back({slot.at, sizes[i]});
  }
  return units;
}

/// Fails unless every unit reads back as the bytes it was filled with.
void expect_reads_back(const SpillStore& store,
                       const std::vector<Stored>& units) {
  std::vector<std::uint8_t> scratch;
  for (std::size_t i = 0; i < units.size(); ++i) {
    SCOPED_TRACE(i);
    const std::uint8_t* p = store.bytes(units[i].at, units[i].size, scratch);
    const std::vector<std::uint8_t> want = unit_bytes(i, units[i].size);
    ASSERT_TRUE(std::vector<std::uint8_t>(p, p + units[i].size) == want);
  }
}

std::int64_t total(const std::vector<std::size_t>& sizes) {
  std::int64_t n = 0;
  for (const std::size_t s : sizes) n += static_cast<std::int64_t>(s);
  return n;
}

TEST(SpillStore, ResidentUnitsAreAChargedPrefix) {
  constexpr std::int64_t kOverhead = 16;
  // Room for the first three units and their overhead, plus 50 bytes: the
  // fourth is refused, and the fifth, small enough for the leftover, goes
  // to disk too, because overflow is sticky.
  const std::vector<std::size_t> sizes{100, 200, 300, 400, 8};
  const std::int64_t resident = 100 + 200 + 300 + 3 * kOverhead;
  SpillBudget budget(resident + 50);
  SpillStore store(::testing::TempDir(), &budget, /*async=*/false);
  const std::vector<Stored> units = append_units(store, sizes, kOverhead);
  store.finish();

  EXPECT_EQ(budget.remaining(), 50);
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].at.on_disk(), i >= 3) << "unit " << i;
  }
  EXPECT_EQ(store.stats().mem_blocks, 3u);
  EXPECT_EQ(store.stats().disk_blocks, 2u);
  EXPECT_EQ(store.stats().disk_bytes, 408);
  expect_reads_back(store, units);
  // Resident reads cost no disk bytes; each disk read counts its bytes.
  EXPECT_EQ(store.disk_bytes_read(), 408);
}

// With no budget every unit goes to disk, bare and back to back: a unit's
// offset is the sum of the sizes before it, empty units included.
TEST(SpillStore, NullBudgetWritesBareUnitsBackToBack) {
  const std::vector<std::size_t> sizes{64, 0, 4096, 1, 333};
  SpillStore store(::testing::TempDir(), nullptr, /*async=*/false);
  const std::vector<Stored> units = append_units(store, sizes, 0);
  store.finish();
  std::int64_t offset = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    ASSERT_TRUE(units[i].at.on_disk());
    EXPECT_EQ(units[i].at.offset, offset) << "unit " << i;
    offset += static_cast<std::int64_t>(sizes[i]);
  }
  EXPECT_EQ(store.stats().mem_blocks, 0u);
  EXPECT_EQ(store.stats().disk_blocks, sizes.size());
  EXPECT_EQ(store.stats().disk_bytes, total(sizes));
  expect_reads_back(store, units);
}

// More than one staging buffer's worth of units: the sync and the async
// writer both flush mid-stream and read back the same bytes.
TEST(SpillStore, BothWritersFlushMidStreamAndReadBack) {
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 700; ++i) sizes.push_back(1000 + (i * 977) % 9000);
  ASSERT_GT(total(sizes), 3 << 20);
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    SpillStore store(::testing::TempDir(), nullptr, async);
    const std::vector<Stored> units = append_units(store, sizes, 0);
    store.finish();
    EXPECT_EQ(store.stats().disk_bytes, total(sizes));
    expect_reads_back(store, units);
  }
}

// Sweep passes read one disk-tier spill from pool threads at once: every
// read names its own offset on the one descriptor, and every byte counts.
TEST(SpillStore, ConcurrentReadersShareOneDescriptor) {
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < 64; ++i) sizes.push_back(500 + i * 37);
  SpillStore store(::testing::TempDir(), nullptr, /*async=*/false);
  const std::vector<Stored> units = append_units(store, sizes, 0);
  store.finish();

  constexpr int kReaders = 4;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint8_t> scratch;
      for (std::size_t k = 0; k < units.size(); ++k) {
        // Each reader walks the units in its own order.
        const std::size_t i = (k * (2 * t + 1) + t) % units.size();
        const std::uint8_t* p =
            store.bytes(units[i].at, units[i].size, scratch);
        if (std::vector<std::uint8_t>(p, p + units[i].size) !=
            unit_bytes(i, units[i].size)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(store.disk_bytes_read(), kReaders * total(sizes));
}

// A read-only store is how a saved trace is read: locations are offsets in
// the existing file, and a location past its end is an error, not garbage.
TEST(SpillStore, ReadOnlyStoreReadsAnExistingFile) {
  const std::string path = ::testing::TempDir() + "charisma_spill_store_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name() +
                           ".bin";
  const std::vector<std::uint8_t> bytes = unit_bytes(5, 1000);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const SpillStore store = SpillStore::read_only(path);
  std::vector<std::uint8_t> scratch;
  SpillLocation at;
  at.offset = 100;
  const std::uint8_t* p = store.bytes(at, 900, scratch);
  EXPECT_TRUE(std::vector<std::uint8_t>(p, p + 900) ==
              std::vector<std::uint8_t>(bytes.begin() + 100, bytes.end()));
  at.offset = 900;
  EXPECT_THROW((void)store.bytes(at, 101, scratch), std::runtime_error);
  EXPECT_EQ(store.stats().disk_bytes, 0);
  std::remove(path.c_str());
  EXPECT_THROW((void)SpillStore::read_only(path), std::runtime_error);
}

}  // namespace
}  // namespace charisma::trace
