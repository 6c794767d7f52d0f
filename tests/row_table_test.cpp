// Tests for dl::RowTable, the paged row-indexed array behind the per-row
// state of the DRAM access path.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/row_table.hpp"
#include "dram/types.hpp"

namespace {

using dl::RowTable;
constexpr std::uint64_t kPage = RowTable<int>::kPageRows;

TEST(RowTable, UntouchedRowsAndPagesReadFill) {
  RowTable<int> t(3 * kPage + 5, -7);
  EXPECT_EQ(t.get(0), -7);
  EXPECT_EQ(t.get(kPage), -7);
  EXPECT_EQ(t.get(3 * kPage + 4), -7);
  EXPECT_EQ(t.allocated_pages(), 0u);  // reads never allocate

  t.set(10, 1);
  EXPECT_EQ(t.allocated_pages(), 1u);
  EXPECT_EQ(t.get(10), 1);
  EXPECT_EQ(t.get(11), -7);         // rest of the touched page is filled
  EXPECT_EQ(t.get(kPage + 10), -7);  // other pages stay untouched
  EXPECT_EQ(t.allocated_pages(), 1u);
}

TEST(RowTable, WritesOnBothSidesOfAPageBoundary) {
  RowTable<std::uint64_t> t(4 * kPage, 0);
  t.set(kPage - 1, 1023);
  EXPECT_EQ(t.allocated_pages(), 1u);
  t.set(kPage, 1024);
  EXPECT_EQ(t.allocated_pages(), 2u);
  EXPECT_EQ(t.get(kPage - 1), 1023u);
  EXPECT_EQ(t.get(kPage), 1024u);
  EXPECT_EQ(t.get(kPage - 2), 0u);
  EXPECT_EQ(t.get(kPage + 1), 0u);
  ++t.at(kPage);
  EXPECT_EQ(t.get(kPage), 1025u);
  EXPECT_EQ(t.get(kPage - 1), 1023u);
}

TEST(RowTable, ResetRefillsTouchedPagesAndKeepsThem) {
  RowTable<double> t(2 * kPage, 0.5);
  t.set(3, 9.0);
  t.set(kPage + 7, 4.0);
  ASSERT_EQ(t.allocated_pages(), 2u);
  t.reset();
  EXPECT_EQ(t.get(3), 0.5);
  EXPECT_EQ(t.get(kPage + 7), 0.5);
  EXPECT_EQ(t.allocated_pages(), 2u);
  t.set(3, 1.0);  // still writable after a reset
  EXPECT_EQ(t.get(3), 1.0);
}

TEST(RowTable, ResetOneRowAllocatesNothing) {
  RowTable<int> t(4 * kPage, 0);
  t.reset(3 * kPage);  // untouched page: stays unallocated
  EXPECT_EQ(t.allocated_pages(), 0u);
  t.set(5, 9);
  t.set(6, 8);
  t.reset(5);
  EXPECT_EQ(t.get(5), 0);
  EXPECT_EQ(t.get(6), 8);
  EXPECT_EQ(t.allocated_pages(), 1u);
}

TEST(RowTable, ForEachVisitsNonFillRowsInAscendingOrder) {
  RowTable<int> t(5 * kPage, 0);
  // Written out of order, across pages, including the last row.
  for (const std::uint64_t row :
       {4 * kPage + 3, std::uint64_t{2}, 5 * kPage - 1, kPage, kPage - 1}) {
    t.set(row, static_cast<int>(row % 1000) + 1);
  }
  t.set(kPage + 1, 0);  // written back to the fill value: not visited
  std::vector<std::pair<std::uint64_t, int>> seen;
  t.for_each([&](std::uint64_t row, int v) { seen.emplace_back(row, v); });
  const std::vector<std::pair<std::uint64_t, int>> want = {
      {2, 3},
      {kPage - 1, static_cast<int>((kPage - 1) % 1000) + 1},
      {kPage, static_cast<int>(kPage % 1000) + 1},
      {4 * kPage + 3, static_cast<int>((4 * kPage + 3) % 1000) + 1},
      {5 * kPage - 1, static_cast<int>((5 * kPage - 1) % 1000) + 1}};
  EXPECT_EQ(seen, want);
}

TEST(RowTable, PartialLastPageIsBoundsChecked) {
  RowTable<int> t(kPage + 3, 0);
  t.set(kPage + 2, 5);
  EXPECT_EQ(t.get(kPage + 2), 5);
  EXPECT_THROW(static_cast<void>(t.get(kPage + 3)), dl::Error);
  EXPECT_THROW(t.set(kPage + 3, 1), dl::Error);
  int visited = 0;
  t.for_each([&](std::uint64_t, int) { ++visited; });
  EXPECT_EQ(visited, 1);
}

TEST(RowTable, FullSizeGeometryAllocatesNoPageUntilWritten) {
  const std::uint64_t rows =
      dl::dram::Geometry::ddr4_32gb_16bank().total_rows();
  ASSERT_EQ(rows, std::uint64_t{1} << 22);  // 4 M rows
  RowTable<std::uint64_t> t(rows, ~std::uint64_t{0});
  EXPECT_EQ(t.allocated_pages(), 0u);
  EXPECT_EQ(t.get(rows - 1), ~std::uint64_t{0});
  EXPECT_EQ(t.get(rows / 2), ~std::uint64_t{0});
  EXPECT_EQ(t.allocated_pages(), 0u);
  t.set(rows - 1, 1);
  EXPECT_EQ(t.allocated_pages(), 1u);
}

}  // namespace
