// Physical-address to DRAM-coordinate mapping.
//
// The OS layer hands the controller flat physical byte addresses; the mapper
// splits them into (row coordinate, byte-offset-in-row) according to an
// interleaving scheme.  Both schemes are exact bijections over the full
// physical address space, which the property tests verify.
//
// Hot path: row_and_byte() decodes straight to {GlobalRowId, byte} without
// materializing a structured RowAddress — for the default kRowBankColumn
// scheme that is one dl::div_mod, a shift and a mask for the power-of-two
// row sizes of every shipped geometry.  to_location() keeps the structured
// form for callers that need coordinates.
#pragma once

#include <cstdint>

#include "common/bits.hpp"
#include "dram/types.hpp"

namespace dl::dram {

using PhysAddr = std::uint64_t;

/// Location of one byte inside the DRAM system.
struct Location {
  RowAddress row;
  std::uint32_t byte = 0;  ///< byte offset within the row

  auto operator<=>(const Location&) const = default;
};

/// Row-granular location: the dense global row id plus the byte offset.
/// The cheap form of Location used on the access hot path.
struct RowByte {
  GlobalRowId row = 0;
  std::uint32_t byte = 0;
};

/// Address interleaving scheme.
enum class MapScheme {
  kRowBankColumn,   ///< consecutive rows land in the same bank (simple)
  kBankInterleaved, ///< consecutive rows rotate across banks (throughput)
};

class AddressMapper {
 public:
  AddressMapper(const Geometry& geometry, MapScheme scheme);

  [[nodiscard]] const Geometry& geometry() const { return geometry_; }
  [[nodiscard]] MapScheme scheme() const { return scheme_; }

  /// Splits a flat physical byte address into a DRAM location.
  [[nodiscard]] Location to_location(PhysAddr addr) const;

  /// Inverse of to_location.
  [[nodiscard]] PhysAddr to_phys(const Location& loc) const;

  /// Hot-path decode: global row id + byte offset, no RowAddress round
  /// trip.  Identical result to {to_global(to_location(addr).row), byte}.
  [[nodiscard]] RowByte row_and_byte(PhysAddr addr) const {
    DL_REQUIRE(addr < total_bytes_, "physical address out of range");
    const QuotRem split = div_mod(addr, geometry_.row_bytes);
    const auto byte = static_cast<std::uint32_t>(split.rem);
    if (scheme_ == MapScheme::kRowBankColumn) return {split.quot, byte};
    return {linear_row_to_global(split.quot), byte};
  }

  /// Row-granular helpers: the global row id that a physical address falls
  /// into, and the base physical address of a global row.
  [[nodiscard]] GlobalRowId row_of(PhysAddr addr) const {
    return row_and_byte(addr).row;
  }
  [[nodiscard]] PhysAddr row_base(GlobalRowId row) const;

 private:
  Geometry geometry_;
  MapScheme scheme_;
  std::uint64_t total_bytes_ = 0;  ///< cached geometry_.total_bytes()

  [[nodiscard]] GlobalRowId linear_row_to_global(std::uint64_t linear) const;
  [[nodiscard]] std::uint64_t global_to_linear_row(GlobalRowId id) const;
};

}  // namespace dl::dram
