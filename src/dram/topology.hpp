// Read-only row/bank topology of one DRAM channel.
//
// Folds the former controller introspection one-offs (bank_count,
// bank_of_row, open_row_in_bank, kNoRow) into a single value-type query
// view.  Schedulers sitting above the controller (dl::traffic FR-FCFS) and
// report code query bank structure and row-buffer state through this struct
// instead of poking individual controller getters.
//
// A Topology is a *view*: it references the controller's per-bank open-row
// table, which lives as long as the controller and never resizes, so a
// Topology taken at construction time stays valid for the controller's
// lifetime and always reads the current row-buffer state.
#pragma once

#include <span>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "dram/types.hpp"

namespace dl::dram {

class Topology {
 public:
  /// Sentinel: no row is open in a bank.
  static constexpr GlobalRowId kNoRow = ~GlobalRowId{0};

  Topology(std::span<const GlobalRowId> open_rows,
           std::uint64_t rows_per_bank, std::uint64_t total_rows)
      : open_rows_(open_rows),
        rows_per_bank_(rows_per_bank),
        total_rows_(total_rows) {}

  /// Number of banks (channel x rank x bank, flat).
  [[nodiscard]] std::size_t bank_count() const { return open_rows_.size(); }

  /// Flat bank index of a physical row, consistent with open_row().
  /// One dl::div_mod quotient (a shift for power-of-two banks) — global
  /// row ids are dense in (channel, rank, bank) order.
  [[nodiscard]] std::size_t bank_of_row(GlobalRowId physical_row) const {
    DL_REQUIRE(physical_row < total_rows_, "row out of range");
    return static_cast<std::size_t>(div_mod(physical_row, rows_per_bank_).quot);
  }

  /// Physical row currently latched in `bank`'s row buffer, or kNoRow.
  [[nodiscard]] GlobalRowId open_row(std::size_t bank) const {
    DL_REQUIRE(bank < open_rows_.size(), "bank index out of range");
    return open_rows_[bank];
  }

  [[nodiscard]] std::uint64_t rows_per_bank() const { return rows_per_bank_; }
  [[nodiscard]] std::uint64_t total_rows() const { return total_rows_; }

 private:
  std::span<const GlobalRowId> open_rows_;  ///< live view of the row buffers
  std::uint64_t rows_per_bank_ = 1;
  std::uint64_t total_rows_ = 0;
};

}  // namespace dl::dram
