// Tests for the sparse DRAM data store.
#include <gtest/gtest.h>

#include <array>

#include "dram/data_store.hpp"

namespace {

using namespace dl::dram;

TEST(DataStore, UntouchedRowsReadZero) {
  DataStore ds(Geometry::tiny());
  std::array<std::uint8_t, 16> buf{0xFF};
  ds.read(5, 0, buf);
  for (const auto b : buf) EXPECT_EQ(b, 0);
  EXPECT_FALSE(ds.materialized(5));
  EXPECT_EQ(ds.materialized_rows(), 0u);
}

TEST(DataStore, WriteReadRoundTrip) {
  DataStore ds(Geometry::tiny());
  const std::array<std::uint8_t, 4> in{1, 2, 3, 4};
  ds.write(7, 10, in);
  std::array<std::uint8_t, 4> out{};
  ds.read(7, 10, out);
  EXPECT_EQ(in, out);
  EXPECT_TRUE(ds.materialized(7));
}

TEST(DataStore, ByteAccessors) {
  DataStore ds(Geometry::tiny());
  ds.write_byte(3, 100, 0xAB);
  EXPECT_EQ(ds.read_byte(3, 100), 0xAB);
  EXPECT_EQ(ds.read_byte(3, 101), 0x00);
}

TEST(DataStore, FlipBitTogglesExactBit) {
  DataStore ds(Geometry::tiny());
  ds.write_byte(2, 0, 0b0000'0000);
  EXPECT_EQ(ds.flip_bit(2, 0, 3), 0b0000'1000);
  EXPECT_EQ(ds.flip_bit(2, 0, 3), 0b0000'0000);
  EXPECT_THROW(ds.flip_bit(2, 0, 8), dl::Error);
}

TEST(DataStore, FlipBitMaterializesRow) {
  DataStore ds(Geometry::tiny());
  ds.flip_bit(9, 5, 0);
  EXPECT_EQ(ds.read_byte(9, 5), 1);
}

TEST(DataStore, CopyRowOverwritesDestination) {
  DataStore ds(Geometry::tiny());
  ds.write_byte(1, 0, 0x11);
  ds.write_byte(4, 0, 0x44);
  ds.copy_row(1, 4);
  EXPECT_EQ(ds.read_byte(4, 0), 0x11);
  EXPECT_EQ(ds.read_byte(1, 0), 0x11);  // source unchanged
}

TEST(DataStore, CopyFromZeroRowClearsDestination) {
  DataStore ds(Geometry::tiny());
  ds.write_byte(4, 0, 0x44);
  ds.copy_row(2, 4);  // row 2 never written: all-zero
  EXPECT_EQ(ds.read_byte(4, 0), 0x00);
}

TEST(DataStore, CopyFromUnmaterializedSourceMaterializesNothing) {
  DataStore ds(Geometry::tiny());
  ds.write_byte(4, 0, 0x44);
  ds.write_byte(4, 255, 0x55);
  ASSERT_EQ(ds.materialized_rows(), 1u);
  ds.copy_row(2, 4);  // zero-fills the materialized destination
  EXPECT_EQ(ds.read_byte(4, 0), 0x00);
  EXPECT_EQ(ds.read_byte(4, 255), 0x00);
  EXPECT_TRUE(ds.materialized(4));
  EXPECT_FALSE(ds.materialized(2));
  ds.copy_row(2, 6);  // neither side materialized: nothing to do
  EXPECT_FALSE(ds.materialized(6));
  EXPECT_EQ(ds.materialized_rows(), 1u);
}

TEST(DataStore, FlipBitOnFreshRowMaterializesExactlyOneRow) {
  DataStore ds(Geometry::tiny());
  EXPECT_EQ(ds.flip_bit(300, 7, 2), 0b100);
  EXPECT_EQ(ds.materialized_rows(), 1u);
  EXPECT_TRUE(ds.materialized(300));
  EXPECT_FALSE(ds.materialized(299));
  EXPECT_FALSE(ds.materialized(301));
  EXPECT_FALSE(ds.materialized(Geometry::tiny().total_rows()));
}

TEST(DataStore, CopyIntoFreshRowMaterializesIt) {
  DataStore ds(Geometry::tiny());
  std::array<std::uint8_t, 4> in{9, 8, 7, 6};
  ds.write(1, 100, in);
  ds.copy_row(1, 500);
  EXPECT_EQ(ds.materialized_rows(), 2u);
  std::array<std::uint8_t, 4> out{};
  ds.read(500, 100, out);
  EXPECT_EQ(out, in);
  ds.write_byte(500, 100, 0);  // the copy is independent of its source
  EXPECT_EQ(ds.read_byte(1, 100), 9);
}

TEST(DataStore, CopyToSelfIsNoop) {
  DataStore ds(Geometry::tiny());
  ds.write_byte(6, 3, 0x77);
  ds.copy_row(6, 6);
  EXPECT_EQ(ds.read_byte(6, 3), 0x77);
}

TEST(DataStore, CrossRowAccessRejected) {
  const Geometry g = Geometry::tiny();
  DataStore ds(g);
  std::array<std::uint8_t, 8> buf{};
  EXPECT_THROW(ds.read(0, g.row_bytes - 4, buf), dl::Error);
  EXPECT_THROW(ds.write(0, g.row_bytes - 4, buf), dl::Error);
  EXPECT_THROW(static_cast<void>(ds.read_byte(g.total_rows(), 0)), dl::Error);
}

}  // namespace
