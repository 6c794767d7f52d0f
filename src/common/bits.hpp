// Bit-level helpers used by the DRAM data model and the attack code.
#pragma once

#include <bit>
#include <cstdint>

namespace dl {

/// Flips bit `bit` (0 = LSB) of `value`.
template <typename T>
[[nodiscard]] constexpr T flip_bit(T value, unsigned bit) {
  return static_cast<T>(value ^ (T{1} << bit));
}

/// Tests bit `bit` of `value`.
template <typename T>
[[nodiscard]] constexpr bool test_bit(T value, unsigned bit) {
  return ((value >> bit) & T{1}) != 0;
}

/// Sets bit `bit` of `value` to `on`.
template <typename T>
[[nodiscard]] constexpr T set_bit(T value, unsigned bit, bool on) {
  const T mask = T{1} << bit;
  return on ? static_cast<T>(value | mask) : static_cast<T>(value & ~mask);
}

/// Extracts the bit-field [lo, lo+width) of `value`.
[[nodiscard]] constexpr std::uint64_t extract_bits(std::uint64_t value,
                                                   unsigned lo,
                                                   unsigned width) {
  const std::uint64_t mask =
      width >= 64 ? ~0ULL : ((std::uint64_t{1} << width) - 1);
  return (value >> lo) & mask;
}

/// Deposits `field` into the bit-field [lo, lo+width) of `value`.
[[nodiscard]] constexpr std::uint64_t deposit_bits(std::uint64_t value,
                                                   unsigned lo, unsigned width,
                                                   std::uint64_t field) {
  const std::uint64_t mask =
      (width >= 64 ? ~0ULL : ((std::uint64_t{1} << width) - 1)) << lo;
  return (value & ~mask) | ((field << lo) & mask);
}

/// True iff `value` is a power of two (and non-zero).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t value) {
  return value != 0 && std::has_single_bit(value);
}

/// log2 of a power of two.
[[nodiscard]] constexpr unsigned log2_exact(std::uint64_t value) {
  return static_cast<unsigned>(std::countr_zero(value));
}

/// Quotient and remainder of one unsigned division.
struct QuotRem {
  std::uint64_t quot = 0;
  std::uint64_t rem = 0;
};

/// `value / divisor` and `value % divisor`.  A power-of-two divisor (every
/// shipped geometry: row bytes, rows per subarray, subarrays, banks) takes
/// a shift and a mask instead of a 64-bit hardware divide; any other
/// divisor goes through `/` and `%`.  `divisor` must be non-zero, as for
/// `/`.  The power-of-two test is spelled out rather than
/// std::has_single_bit, which is a popcount — a library call on targets
/// built without a popcount instruction.
[[nodiscard]] constexpr QuotRem div_mod(std::uint64_t value,
                                        std::uint64_t divisor) {
  if ((divisor & (divisor - 1)) == 0) [[likely]] {
    return {value >> std::countr_zero(divisor), value & (divisor - 1)};
  }
  return {value / divisor, value % divisor};
}

/// Number of set bits.
[[nodiscard]] constexpr int popcount64(std::uint64_t value) {
  return std::popcount(value);
}

}  // namespace dl
