// Logical-to-physical row indirection.
//
// Swap-based RowHammer defenses (DRAM-Locker, SHADOW, RRS/SRS) relocate row
// *contents* between physical rows while keeping the addresses the rest of
// the system uses stable.  RowIndirection maintains that remap as a
// bijection stored in two paged RowTables (common/row_table.hpp): forward
// (logical → physical) and reverse, each holding kIdentity for every row a
// swap has not displaced.  A lookup is two array loads; with no row
// displaced (the common case) it is none, and pages are allocated only
// around rows a swap has touched.
//
// Invariant: the mapping is a permutation of the global row space at all
// times (checked by swap()).
//
// Epoch: every mutation (swap_logical, reset) bumps epoch().  Schedulers
// that cache decoded {logical → physical} translations of queued requests
// (traffic::FrFcfsScheduler, per bank queue) tag the cache with the epoch
// and re-translate only when it changed — the decode-once fast path of the
// request pipeline.
#pragma once

#include <cstdint>

#include "common/row_table.hpp"
#include "dram/types.hpp"

namespace dl::dram {

class RowIndirection {
 public:
  explicit RowIndirection(const Geometry& geometry);

  /// Physical row currently holding logical row `logical`.
  [[nodiscard]] GlobalRowId to_physical(GlobalRowId logical) const {
    DL_REQUIRE(logical < total_rows_, "logical row out of range");
    if (displaced_ == 0) return logical;  // no swap active: identity
    const GlobalRowId phys = fwd_.get(logical);
    return phys == kIdentity ? logical : phys;
  }

  /// Logical row whose contents currently live in physical row `physical`.
  [[nodiscard]] GlobalRowId to_logical(GlobalRowId physical) const {
    DL_REQUIRE(physical < total_rows_, "physical row out of range");
    if (displaced_ == 0) return physical;
    const GlobalRowId logical = rev_.get(physical);
    return logical == kIdentity ? physical : logical;
  }

  /// Exchanges the physical locations of two logical rows.
  void swap_logical(GlobalRowId logical_a, GlobalRowId logical_b);

  /// Number of rows currently displaced from their identity location.
  [[nodiscard]] std::size_t displaced_rows() const { return displaced_; }

  /// Monotonic mutation counter; increments on every swap_logical that
  /// changes the mapping and on reset().  Cached translations tagged with
  /// an older epoch must be re-derived.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Resets every row to its identity mapping.
  void reset();

 private:
  /// Table entry of a row that sits at its identity location.
  static constexpr GlobalRowId kIdentity = ~GlobalRowId{0};

  Geometry geometry_;
  std::uint64_t total_rows_ = 0;  ///< cached geometry_.total_rows()
  std::uint64_t epoch_ = 0;
  std::size_t displaced_ = 0;   ///< rows whose fwd_ entry is not kIdentity
  RowTable<GlobalRowId> fwd_;  ///< logical -> physical
  RowTable<GlobalRowId> rev_;  ///< physical -> logical

  void set_pair(GlobalRowId logical, GlobalRowId physical);
};

}  // namespace dl::dram
