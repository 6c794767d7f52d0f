// Tests for the DRAM-Locker lock-table.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "defense/lock_table.hpp"

namespace {

using dl::defense::LockTable;

constexpr std::uint64_t kRows = 4096;  // physical rows the table can name

TEST(LockTable, LockAndLookup) {
  LockTable t(8, kRows);
  EXPECT_TRUE(t.lock(42));
  EXPECT_TRUE(t.is_locked(42));
  EXPECT_FALSE(t.is_locked(43));
  EXPECT_EQ(t.size(), 1u);
}

TEST(LockTable, LockIsIdempotent) {
  LockTable t(8, kRows);
  EXPECT_TRUE(t.lock(42));
  EXPECT_FALSE(t.lock(42));
  EXPECT_EQ(t.size(), 1u);
}

TEST(LockTable, UnlockRemoves) {
  LockTable t(8, kRows);
  t.lock(42);
  EXPECT_TRUE(t.unlock(42));
  EXPECT_FALSE(t.is_locked(42));
  EXPECT_FALSE(t.unlock(42));
}

TEST(LockTable, CapacityEnforced) {
  LockTable t(2, kRows);
  EXPECT_TRUE(t.lock(1));
  EXPECT_TRUE(t.lock(2));
  EXPECT_FALSE(t.lock(3));
  EXPECT_EQ(t.rejected_inserts(), 1u);
  t.unlock(1);
  EXPECT_TRUE(t.lock(3));
}

TEST(LockTable, RelocateMovesLock) {
  LockTable t(4, kRows);
  t.lock(10);
  EXPECT_TRUE(t.relocate(10, 20));
  EXPECT_FALSE(t.is_locked(10));
  EXPECT_TRUE(t.is_locked(20));
  EXPECT_FALSE(t.relocate(99, 100));  // source not locked
}

TEST(LockTable, RelocateAtFullCapacityNeverRejects) {
  LockTable t(2, kRows);
  t.lock(1);
  t.lock(2);
  EXPECT_TRUE(t.relocate(1, 3));
  EXPECT_TRUE(t.is_locked(3));
  EXPECT_TRUE(t.is_locked(2));
  EXPECT_EQ(t.size(), 2u);
}

TEST(LockTable, RelocateToSelf) {
  LockTable t(2, kRows);
  t.lock(5);
  EXPECT_TRUE(t.relocate(5, 5));
  EXPECT_TRUE(t.is_locked(5));
}

TEST(LockTable, LockedRowsInInsertionOrder) {
  LockTable t(8, kRows);
  t.lock(30);
  t.lock(10);
  t.lock(20);
  const auto rows = t.locked_rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], 30u);
  EXPECT_EQ(rows[1], 10u);
  EXPECT_EQ(rows[2], 20u);
}

TEST(LockTable, StatsTrackLookups) {
  LockTable t(8, kRows);
  t.lock(1);
  // Results deliberately discarded: the lookups themselves are the test.
  static_cast<void>(t.is_locked(1));
  static_cast<void>(t.is_locked(2));
  static_cast<void>(t.is_locked(1));
  EXPECT_EQ(t.lookups(), 3u);
  EXPECT_EQ(t.hits(), 2u);
}

TEST(LockTable, ClearEmptiesTable) {
  LockTable t(8, kRows);
  t.lock(1);
  t.lock(2);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.is_locked(1));
}

TEST(LockTable, RelocateOntoLockedRowMergesLocks) {
  LockTable t(8, kRows);
  t.lock(1);
  t.lock(2);
  t.lock(3);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.relocate(1, 3));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.is_locked(1));
  EXPECT_TRUE(t.is_locked(3));
  // Row 3 keeps its own (later) sequence number, so it still sorts after 2;
  // had it taken row 1's, it would come first.
  const std::vector<dl::dram::GlobalRowId> want = {2, 3};
  EXPECT_EQ(t.locked_rows(), want);
  // The freed slot is reusable up to capacity.
  EXPECT_TRUE(t.lock(1));
  EXPECT_EQ(t.size(), 3u);
}

TEST(LockTable, LockedRowsOrderAfterRelocate) {
  LockTable t(8, kRows);
  t.lock(3000);
  t.lock(10);
  t.lock(2000);
  // The moved lock keeps its insertion slot, wherever its new row sorts.
  EXPECT_TRUE(t.relocate(3000, 5));
  EXPECT_TRUE(t.relocate(10, 4000));
  const std::vector<dl::dram::GlobalRowId> want = {5, 4000, 2000};
  EXPECT_EQ(t.locked_rows(), want);
  t.unlock(4000);
  t.lock(7);
  const std::vector<dl::dram::GlobalRowId> after = {5, 2000, 7};
  EXPECT_EQ(t.locked_rows(), after);
}

TEST(LockTable, RowsOutsideTheTableRejected) {
  LockTable t(8, kRows);
  EXPECT_THROW(t.lock(kRows), dl::Error);
  EXPECT_THROW(static_cast<void>(t.is_locked(kRows)), dl::Error);
  EXPECT_EQ(t.size(), 0u);
}

TEST(LockTable, ZeroCapacityRejected) {
  EXPECT_THROW(LockTable(0, kRows), dl::Error);
}

}  // namespace
