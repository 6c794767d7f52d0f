// DRAM-Locker's lock-table (Sec. IV-B of the paper).
//
// A small SRAM structure holding the physical addresses of rows that must
// not be activated without the unlock capability.  Unlike the count-tables
// of counter-based designs it stores no per-row counters — membership *is*
// the protection.  Lookups happen in parallel with command decode, so a hit
// or miss adds no latency to the command stream; the SRAM sizing (56 KB for
// 16384 entries on the 32 GB configuration) is reproduced by
// analytic::lock_table_bytes.
//
// The simulator mirrors the direct-indexed SRAM with a paged RowTable
// (common/row_table.hpp) over the channel's physical rows: each row holds
// its insertion sequence number, or kFree when unlocked, so a lookup is two
// array loads.  `capacity` still bounds the number of locked rows; the
// sequence numbers only order locked_rows().
#pragma once

#include <cstdint>
#include <vector>

#include "common/row_table.hpp"
#include "dram/types.hpp"

namespace dl::defense {

class LockTable {
 public:
  /// `capacity` bounds the number of simultaneously locked rows, modelling
  /// the fixed SRAM macro (16384 entries = 56 KB in Table I).  `rows` is
  /// the number of physical rows the table can name (the channel's
  /// Geometry::total_rows()); rows outside it are rejected.
  LockTable(std::size_t capacity, std::uint64_t rows);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Inserts a physical row.  Returns false when the table is full or the
  /// row is already present (idempotent).
  bool lock(dl::dram::GlobalRowId physical_row);

  /// Removes a physical row.  Returns false if it was not present.
  bool unlock(dl::dram::GlobalRowId physical_row);

  /// Membership test; counts a lookup for the statistics.
  [[nodiscard]] bool is_locked(dl::dram::GlobalRowId physical_row) const {
    ++lookups_;
    const bool hit = seq_.get(physical_row) != kFree;
    if (hit) ++hits_;
    return hit;
  }

  /// Atomically moves a lock from one physical row to another (the Fig. 4(d)
  /// re-lock: the swapped data's new location inherits the lock).
  bool relocate(dl::dram::GlobalRowId from, dl::dram::GlobalRowId to);

  /// All locked rows in insertion order (for inspection / tests).
  [[nodiscard]] std::vector<dl::dram::GlobalRowId> locked_rows() const;

  void clear();

  // Statistics.
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t rejected_inserts() const { return rejected_; }

 private:
  /// Sequence entry of an unlocked row.
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};

  std::size_t capacity_;
  RowTable<std::uint64_t> seq_;  ///< row -> insertion sequence, or kFree
  std::size_t size_ = 0;         ///< rows whose entry is not kFree
  std::uint64_t next_seq_ = 0;
  mutable std::uint64_t lookups_ = 0;
  mutable std::uint64_t hits_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace dl::defense
