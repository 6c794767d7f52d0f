#include "dram/indirection.hpp"

#include "common/error.hpp"

namespace dl::dram {

RowIndirection::RowIndirection(const Geometry& geometry)
    : geometry_(geometry),
      total_rows_(geometry.total_rows()),
      fwd_(total_rows_, kIdentity),
      rev_(total_rows_, kIdentity) {}

void RowIndirection::set_pair(GlobalRowId logical, GlobalRowId physical) {
  const bool was_displaced = fwd_.get(logical) != kIdentity;
  if (logical == physical) {
    if (was_displaced) --displaced_;
    fwd_.reset(logical);
    rev_.reset(physical);
  } else {
    if (!was_displaced) ++displaced_;
    fwd_.set(logical, physical);
    rev_.set(physical, logical);
  }
}

void RowIndirection::swap_logical(GlobalRowId logical_a, GlobalRowId logical_b) {
  DL_REQUIRE(logical_a < total_rows_ && logical_b < total_rows_,
             "logical row out of range");
  if (logical_a == logical_b) return;
  const GlobalRowId phys_a = to_physical(logical_a);
  const GlobalRowId phys_b = to_physical(logical_b);
  set_pair(logical_a, phys_b);
  set_pair(logical_b, phys_a);
  ++epoch_;
}

void RowIndirection::reset() {
  fwd_.reset();
  rev_.reset();
  displaced_ = 0;
  ++epoch_;
}

}  // namespace dl::dram
