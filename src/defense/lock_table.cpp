#include "defense/lock_table.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace dl::defense {

LockTable::LockTable(std::size_t capacity, std::uint64_t rows)
    : capacity_(capacity), seq_(rows, kFree) {
  DL_REQUIRE(capacity > 0, "lock-table needs at least one entry");
}

bool LockTable::lock(dl::dram::GlobalRowId physical_row) {
  if (seq_.get(physical_row) != kFree) return false;
  if (size_ >= capacity_) {
    ++rejected_;
    return false;
  }
  seq_.set(physical_row, next_seq_++);
  ++size_;
  return true;
}

bool LockTable::unlock(dl::dram::GlobalRowId physical_row) {
  if (seq_.get(physical_row) == kFree) return false;
  seq_.set(physical_row, kFree);
  --size_;
  return true;
}

bool LockTable::relocate(dl::dram::GlobalRowId from, dl::dram::GlobalRowId to) {
  const std::uint64_t seq = seq_.get(from);
  if (seq == kFree) return false;
  if (from == to) return true;
  seq_.set(from, kFree);
  // Relocation cannot overflow: we just freed a slot.  A target that is
  // already locked keeps its own sequence number; the two locks merge.
  if (seq_.get(to) == kFree) {
    seq_.set(to, seq);
  } else {
    --size_;
  }
  return true;
}

std::vector<dl::dram::GlobalRowId> LockTable::locked_rows() const {
  std::vector<std::pair<std::uint64_t, dl::dram::GlobalRowId>> order;
  order.reserve(size_);
  seq_.for_each([&](dl::dram::GlobalRowId row, std::uint64_t seq) {
    order.emplace_back(seq, row);
  });
  std::sort(order.begin(), order.end());
  std::vector<dl::dram::GlobalRowId> out;
  out.reserve(order.size());
  for (const auto& [seq, row] : order) out.push_back(row);
  return out;
}

void LockTable::clear() {
  seq_.reset();
  size_ = 0;
}

}  // namespace dl::defense
