// Backing store for DRAM row contents.
//
// Only rows that have been written (or disturbed) are materialized; untouched
// rows read as zero.  A paged RowTable (common/row_table.hpp) maps each
// *physical* global row id to the slot of its row_bytes buffer, so finding a
// row is two array loads, and memory grows with the rows materialized, not
// with the geometry.  Swap defenses move data between physical rows via
// RowClone, and the indirection layer (indirection.hpp) keeps logical
// addresses stable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/row_table.hpp"
#include "dram/types.hpp"

namespace dl::dram {

class DataStore {
 public:
  explicit DataStore(const Geometry& geometry);

  [[nodiscard]] const Geometry& geometry() const { return geometry_; }

  /// Reads `out.size()` bytes starting at byte `offset` of row `row`.
  void read(GlobalRowId row, std::uint32_t offset, std::span<std::uint8_t> out) const;

  /// Writes `in.size()` bytes starting at byte `offset` of row `row`.
  void write(GlobalRowId row, std::uint32_t offset, std::span<const std::uint8_t> in);

  /// Reads one byte.
  [[nodiscard]] std::uint8_t read_byte(GlobalRowId row, std::uint32_t offset) const;

  /// Writes one byte.
  void write_byte(GlobalRowId row, std::uint32_t offset, std::uint8_t value);

  /// Flips bit `bit` (0..7) of byte `offset` in row `row`; used by the
  /// RowHammer fault-injection model.  Returns the new byte value.
  std::uint8_t flip_bit(GlobalRowId row, std::uint32_t offset, unsigned bit);

  /// Copies the full contents of row `src` over row `dst` (RowClone
  /// semantics: destination is overwritten).
  void copy_row(GlobalRowId src, GlobalRowId dst);

  /// True if the row has been materialized (written at least once).
  [[nodiscard]] bool materialized(GlobalRowId row) const;

  /// Number of materialized rows (memory-footprint introspection).
  [[nodiscard]] std::size_t materialized_rows() const { return rows_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  Geometry geometry_;
  RowTable<std::uint32_t> slot_;  ///< row -> index into rows_, or kNoSlot
  std::vector<std::vector<std::uint8_t>> rows_;  ///< materialized rows

  /// Contents of `row`, or nullptr when it was never materialized.
  [[nodiscard]] const std::uint8_t* find(GlobalRowId row) const {
    const std::uint32_t s = slot_.get(row);
    return s == kNoSlot ? nullptr : rows_[s].data();
  }
  /// Contents of `row`, materialized (zero-filled) on first use.
  std::uint8_t* row_data(GlobalRowId row);
  void check(GlobalRowId row, std::uint32_t offset, std::size_t len) const;
};

}  // namespace dl::dram
