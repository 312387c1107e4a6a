#include "workload/scheduler.hpp"

#include <bit>

#include "util/check.hpp"

namespace charisma::workload {

SubcubeAllocator::SubcubeAllocator(int dimension)
    : dimension_(dimension), free_(std::int32_t{1} << dimension) {
  CHECK(dimension >= 0 && dimension <= 20, "bad allocator dimension");
  free_lists_.resize(static_cast<std::size_t>(dimension) + 1);
  free_lists_[static_cast<std::size_t>(dimension)].insert(0);
}

int SubcubeAllocator::order_of(std::int32_t nodes) {
  CHECK(nodes >= 1 && std::has_single_bit(static_cast<std::uint32_t>(nodes)),
        "subcube size must be a power of two");
  return std::bit_width(static_cast<std::uint32_t>(nodes)) - 1;
}

std::int32_t SubcubeAllocator::allocate(std::int32_t nodes) {
  const int want = order_of(nodes);
  if (want > dimension_) return -1;
  // Find the smallest free subcube that fits.
  int have = want;
  while (have <= dimension_ &&
         free_lists_[static_cast<std::size_t>(have)].empty()) {
    ++have;
  }
  if (have > dimension_) return -1;
  auto& from = free_lists_[static_cast<std::size_t>(have)];
  std::int32_t base = *from.begin();
  from.erase(from.begin());
  // Split down to the requested order, freeing the upper buddies.
  while (have > want) {
    --have;
    const std::int32_t buddy = base + (std::int32_t{1} << have);
    free_lists_[static_cast<std::size_t>(have)].insert(buddy);
  }
  free_ -= nodes;
  return base;
}

void SubcubeAllocator::release(std::int32_t base, std::int32_t nodes) {
  int order = order_of(nodes);
  CHECK(base >= 0 && base + nodes <= total_nodes() &&
            base % nodes == 0,
        "bad subcube release");
  free_ += nodes;
  // Coalesce with buddies while possible.
  while (order < dimension_) {
    const std::int32_t buddy = base ^ (std::int32_t{1} << order);
    auto& list = free_lists_[static_cast<std::size_t>(order)];
    const auto it = list.find(buddy);
    if (it == list.end()) break;
    list.erase(it);
    base = std::min(base, buddy);
    ++order;
  }
  free_lists_[static_cast<std::size_t>(order)].insert(base);
}

}  // namespace charisma::workload
