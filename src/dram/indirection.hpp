// Logical-to-physical row indirection.
//
// Swap-based RowHammer defenses (DRAM-Locker, SHADOW, RRS/SRS) relocate row
// *contents* between physical rows while keeping the addresses the rest of
// the system uses stable.  RowIndirection maintains that remap as a sparse
// bijection: logical rows map identity unless a swap has displaced them.
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
#include <unordered_map>

#include "dram/types.hpp"

namespace dl::dram {

class RowIndirection {
 public:
  explicit RowIndirection(const Geometry& geometry);

  /// Physical row currently holding logical row `logical`.
  [[nodiscard]] GlobalRowId to_physical(GlobalRowId logical) const {
    DL_REQUIRE(logical < total_rows_, "logical row out of range");
    if (fwd_.empty()) return logical;  // no swap active: identity
    const auto it = fwd_.find(logical);
    return it == fwd_.end() ? logical : it->second;
  }

  /// Logical row whose contents currently live in physical row `physical`.
  [[nodiscard]] GlobalRowId to_logical(GlobalRowId physical) const {
    DL_REQUIRE(physical < total_rows_, "physical row out of range");
    if (rev_.empty()) return physical;
    const auto it = rev_.find(physical);
    return it == rev_.end() ? physical : it->second;
  }

  /// Exchanges the physical locations of two logical rows.
  void swap_logical(GlobalRowId logical_a, GlobalRowId logical_b);

  /// Number of rows currently displaced from their identity location.
  [[nodiscard]] std::size_t displaced_rows() const { return fwd_.size(); }

  /// Monotonic mutation counter; increments on every swap_logical that
  /// changes the mapping and on reset().  Cached translations tagged with
  /// an older epoch must be re-derived.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Resets every row to its identity mapping.
  void reset();

 private:
  Geometry geometry_;
  std::uint64_t total_rows_ = 0;  ///< cached geometry_.total_rows()
  std::uint64_t epoch_ = 0;
  std::unordered_map<GlobalRowId, GlobalRowId> fwd_;  ///< logical -> physical
  std::unordered_map<GlobalRowId, GlobalRowId> rev_;  ///< physical -> logical

  void set_pair(GlobalRowId logical, GlobalRowId physical);
};

}  // namespace dl::dram
