// Paged, row-indexed table: O(1) per-row state over a sparse row space.
//
// The DRAM access path asks several per-row questions on every request:
// lock-table membership, logical↔physical indirection, the backing-store
// row, disturbance accumulators, tracker counters.  A RowTable answers each
// with two dependent loads (page directory, then entry) and no hashing —
// the software analogue of the paper's direct-indexed lock-table SRAM.
//
// Rows are grouped into pages of kPageRows entries.  A page is allocated,
// filled with the table's fill value, on its first write; reading a row of
// an untouched page returns the fill value without allocating.  Memory
// therefore grows with the rows touched: a table over the 4 M rows of
// Geometry::ddr4_32gb_16bank costs only its 32 KiB page directory until
// written.  Pages are never released; reset() refills the allocated ones.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace dl {

template <typename T>
class RowTable {
 public:
  static constexpr std::uint64_t kPageRows = 1024;

  RowTable(std::uint64_t rows, T fill)
      : rows_(rows), fill_(fill), pages_((rows + kPageRows - 1) / kPageRows) {}

  [[nodiscard]] std::uint64_t rows() const { return rows_; }

  /// Value of `row`: the fill value when its page was never written.
  [[nodiscard]] const T& get(std::uint64_t row) const {
    DL_REQUIRE(row < rows_, "row outside the table");
    const auto& page = pages_[row / kPageRows];
    return page ? page[row % kPageRows] : fill_;
  }

  /// Writable entry of `row`; allocates and fills its page on first use.
  [[nodiscard]] T& at(std::uint64_t row) {
    DL_REQUIRE(row < rows_, "row outside the table");
    auto& page = pages_[row / kPageRows];
    if (!page) {
      page = std::make_unique_for_overwrite<T[]>(kPageRows);
      std::fill_n(page.get(), kPageRows, fill_);
    }
    return page[row % kPageRows];
  }

  void set(std::uint64_t row, const T& value) { at(row) = value; }

  /// `row` back to the fill value; allocates nothing.
  void reset(std::uint64_t row) {
    if (get(row) != fill_) at(row) = fill_;
  }

  /// Every row back to the fill value; only allocated pages are touched
  /// and they stay allocated.
  void reset() {
    for (auto& page : pages_) {
      if (page) std::fill_n(page.get(), kPageRows, fill_);
    }
  }

  /// Calls `fn(row, value)` for every row whose value differs from the
  /// fill value, in ascending row order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      if (!pages_[p]) continue;
      const std::uint64_t base = p * kPageRows;
      const std::uint64_t end = std::min(kPageRows, rows_ - base);
      for (std::uint64_t i = 0; i < end; ++i) {
        if (pages_[p][i] != fill_) fn(base + i, pages_[p][i]);
      }
    }
  }

  /// Pages allocated so far (memory-footprint introspection).
  [[nodiscard]] std::size_t allocated_pages() const {
    return static_cast<std::size_t>(std::count_if(
        pages_.begin(), pages_.end(), [](const auto& p) { return p != nullptr; }));
  }

 private:
  std::uint64_t rows_;
  T fill_;
  std::vector<std::unique_ptr<T[]>> pages_;
};

}  // namespace dl
