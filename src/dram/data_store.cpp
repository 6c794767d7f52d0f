#include "dram/data_store.hpp"

#include <algorithm>
#include <cstring>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace dl::dram {

DataStore::DataStore(const Geometry& geometry)
    : geometry_(geometry), slot_(geometry.total_rows(), kNoSlot) {}

void DataStore::check(GlobalRowId row, std::uint32_t offset,
                      std::size_t len) const {
  DL_REQUIRE(row < geometry_.total_rows(), "row id out of range");
  DL_REQUIRE(offset + len <= geometry_.row_bytes,
             "access crosses row boundary");
}

std::uint8_t* DataStore::row_data(GlobalRowId row) {
  std::uint32_t& s = slot_.at(row);
  if (s == kNoSlot) {
    DL_REQUIRE(rows_.size() < kNoSlot, "backing store slot index overflow");
    s = static_cast<std::uint32_t>(rows_.size());
    rows_.emplace_back(geometry_.row_bytes, std::uint8_t{0});
  }
  return rows_[s].data();
}

void DataStore::read(GlobalRowId row, std::uint32_t offset,
                     std::span<std::uint8_t> out) const {
  check(row, offset, out.size());
  const std::uint8_t* data = find(row);
  if (data == nullptr) {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    return;
  }
  std::memcpy(out.data(), data + offset, out.size());
}

void DataStore::write(GlobalRowId row, std::uint32_t offset,
                      std::span<const std::uint8_t> in) {
  check(row, offset, in.size());
  std::memcpy(row_data(row) + offset, in.data(), in.size());
}

std::uint8_t DataStore::read_byte(GlobalRowId row, std::uint32_t offset) const {
  std::uint8_t b = 0;
  read(row, offset, std::span<std::uint8_t>(&b, 1));
  return b;
}

void DataStore::write_byte(GlobalRowId row, std::uint32_t offset,
                           std::uint8_t value) {
  write(row, offset, std::span<const std::uint8_t>(&value, 1));
}

std::uint8_t DataStore::flip_bit(GlobalRowId row, std::uint32_t offset,
                                 unsigned bit) {
  check(row, offset, 1);
  DL_REQUIRE(bit < 8, "bit index within a byte");
  std::uint8_t& byte = row_data(row)[offset];
  byte = dl::flip_bit(byte, bit);
  return byte;
}

void DataStore::copy_row(GlobalRowId src, GlobalRowId dst) {
  check(src, 0, 0);
  check(dst, 0, 0);
  if (src == dst) return;
  const std::uint8_t* src_data = find(src);
  if (src_data == nullptr) {
    // Source is all-zero; zero the destination only if it is materialized.
    const std::uint32_t d = slot_.get(dst);
    if (d != kNoSlot) std::fill(rows_[d].begin(), rows_[d].end(), std::uint8_t{0});
    return;
  }
  // Growing rows_ moves the row vectors, not their buffers: src_data stays
  // valid while row_data() materializes the destination.
  std::memcpy(row_data(dst), src_data, geometry_.row_bytes);
}

bool DataStore::materialized(GlobalRowId row) const {
  return row < slot_.rows() && slot_.get(row) != kNoSlot;
}

}  // namespace dl::dram
