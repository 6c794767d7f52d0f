#include "integrity/checksum.hpp"

#include <bit>
#include <cstring>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace dl::integrity {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kParity2D: return "parity2d";
    case Scheme::kAdditive: return "additive";
  }
  return "?";
}

const char* to_string(Recovery recovery) {
  switch (recovery) {
    case Recovery::kDetectOnly:    return "detect-only";
    case Recovery::kCorrect:       return "correct";
    case Recovery::kCorrectOrZero: return "correct-or-zero";
  }
  return "?";
}

double detection_rate(std::uint64_t corrected_bits,
                      std::uint64_t zeroed_corrupt_bytes,
                      const Audit& audit) {
  const double caught =
      static_cast<double>(corrected_bits + zeroed_corrupt_bytes +
                          (audit.corrupt_bytes - audit.missed_bytes));
  const double total = static_cast<double>(
      corrected_bits + zeroed_corrupt_bytes + audit.corrupt_bytes);
  return total > 0.0 ? caught / total : 1.0;
}

namespace {

// Parity2d kernel: 8 data bytes per step.  Bytes are assembled LSB-first
// (memcpy on little-endian hosts), so byte j of a word is bits [8j, 8j+8)
// and its row-parity bit lands at bit j of the packed byte, matching the
// stored layout (row-parity bit of data byte j at bit j % 8 of byte j / 8).

[[nodiscard]] std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof(w));
  } else {
    for (unsigned k = 0; k < 8; ++k) {
      w |= static_cast<std::uint64_t>(p[k]) << (8 * k);
    }
  }
  return w;
}

/// Parity of each of the word's 8 bytes, packed into one byte (bit j =
/// parity of byte j).  XOR-folding leaves each byte's parity in its low
/// bit; the multiply gathers the 8 low bits into the top byte — partial
/// products never collide, so no carry disturbs it.
[[nodiscard]] std::uint8_t byte_parities(std::uint64_t w) {
  w ^= w >> 4;
  w ^= w >> 2;
  w ^= w >> 1;
  w &= 0x0101010101010101ULL;
  return static_cast<std::uint8_t>((w * 0x0102040810204080ULL) >> 56);
}

/// XOR of a word's 8 bytes.
[[nodiscard]] std::uint8_t fold_bytes(std::uint64_t w) {
  w ^= w >> 32;
  w ^= w >> 16;
  w ^= w >> 8;
  return static_cast<std::uint8_t>(w);
}

[[nodiscard]] constexpr unsigned byte_parity(std::uint8_t b) {
  return static_cast<unsigned>(std::popcount(b)) & 1u;
}

}  // namespace

BlockChecksums::BlockChecksums(const Config& config,
                               std::span<const std::uint8_t> image)
    : config_(config), image_bytes_(image.size()) {
  DL_REQUIRE(config_.group_size > 0, "checksum group size must be positive");
  DL_REQUIRE(!image.empty(), "cannot checksum an empty image");
  groups_ = (image_bytes_ + config_.group_size - 1) / config_.group_size;
  stride_ = config_.scheme == Scheme::kParity2D
                ? 1 + (config_.group_size + 7) / 8
                : 2;
  store_.assign(groups_ * stride_, 0);
  for (std::size_t g = 0; g < groups_; ++g) {
    const auto [off, len] = group_range(g);
    compute(image.subspan(off, len), stored(g));
  }
}

std::pair<std::size_t, std::size_t> BlockChecksums::group_range(
    std::size_t g) const {
  DL_REQUIRE(g < groups_, "checksum group out of range");
  const std::size_t off = g * config_.group_size;
  const std::size_t len =
      off + config_.group_size <= image_bytes_ ? config_.group_size
                                               : image_bytes_ - off;
  return {off, len};
}

std::span<const std::uint8_t> BlockChecksums::stored(std::size_t g) const {
  return {store_.data() + g * stride_, stride_};
}

std::span<std::uint8_t> BlockChecksums::stored(std::size_t g) {
  return {store_.data() + g * stride_, stride_};
}

void BlockChecksums::compute(std::span<const std::uint8_t> data,
                             std::span<std::uint8_t> out) const {
  for (auto& b : out) b = 0;
  if (config_.scheme == Scheme::kParity2D) {
    const std::size_t words = data.size() / 8;
    std::uint64_t column = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = load_word(data.data() + 8 * w);
      column ^= word;
      out[1 + w] = byte_parities(word);
    }
    std::uint8_t col = fold_bytes(column);
    for (std::size_t j = 8 * words; j < data.size(); ++j) {
      col ^= data[j];
      out[1 + words] = static_cast<std::uint8_t>(
          out[1 + words] | (byte_parity(data[j]) << (j % 8)));
    }
    out[0] = col;
  } else {
    std::uint16_t sum = 0;
    for (const std::uint8_t b : data) {
      sum = static_cast<std::uint16_t>(sum + b);
    }
    out[0] = static_cast<std::uint8_t>(sum & 0xFF);
    out[1] = static_cast<std::uint8_t>(sum >> 8);
  }
}

Diagnosis BlockChecksums::diagnose(
    std::size_t g, std::span<const std::uint8_t> data) const {
  const auto [off, len] = group_range(g);
  (void)off;
  DL_REQUIRE(data.size() == len, "group data span has the wrong length");
  Diagnosis d;
  const auto ref = stored(g);

  if (config_.scheme == Scheme::kAdditive) {
    std::uint16_t sum = 0;
    for (const std::uint8_t b : data) {
      sum = static_cast<std::uint16_t>(sum + b);
    }
    const std::uint16_t want =
        static_cast<std::uint16_t>(ref[0] | (ref[1] << 8));
    // An additive checksum cannot localize the fault, and cannot tell a
    // corrupted checksum word from corrupted data — every mismatch is
    // "detected, uncorrectable" by construction.
    d.state = sum == want ? Diagnosis::State::kClean
                          : Diagnosis::State::kUncorrectable;
    return d;
  }

  const std::size_t words = data.size() / 8;
  std::uint64_t column = 0;
  std::size_t row_mismatches = 0;
  std::size_t first_row = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t word = load_word(data.data() + 8 * w);
    column ^= word;
    const auto diff =
        static_cast<std::uint8_t>(byte_parities(word) ^ ref[1 + w]);
    if (diff != 0) {
      if (row_mismatches == 0) {
        first_row = 8 * w + static_cast<std::size_t>(std::countr_zero(diff));
      }
      row_mismatches += static_cast<std::size_t>(std::popcount(diff));
    }
  }
  std::uint8_t col = fold_bytes(column);
  for (std::size_t j = 8 * words; j < data.size(); ++j) {
    col ^= data[j];
    const unsigned want = (ref[1 + words] >> (j % 8)) & 1u;
    if (byte_parity(data[j]) != want) {
      if (row_mismatches == 0) first_row = j;
      ++row_mismatches;
    }
  }
  const std::uint8_t col_diff = static_cast<std::uint8_t>(col ^ ref[0]);
  const int col_bits = std::popcount(col_diff);

  if (col_bits == 0 && row_mismatches == 0) {
    d.state = Diagnosis::State::kClean;
  } else if (col_bits == 1 && row_mismatches == 1) {
    // The single-fault signature: exactly one column and one row mismatch
    // intersect at the flipped bit.
    d.state = Diagnosis::State::kCorrectable;
    d.byte = static_cast<std::uint32_t>(first_row);
    d.bit = static_cast<unsigned>(std::countr_zero(col_diff));
  } else if ((col_bits == 1 && row_mismatches == 0) ||
             (col_bits == 0 && row_mismatches == 1)) {
    // One side of the parity cross mismatches on its own: a single fault in
    // the checksum storage, not in the data.  (A multi-bit pattern with no
    // row mismatch is ambiguous — an even number of flips inside one data
    // byte looks identical — so only the single-bit case is classified as
    // checksum corruption; everything else stays uncorrectable.)
    d.state = Diagnosis::State::kChecksumCorrupt;
  } else {
    d.state = Diagnosis::State::kUncorrectable;
  }
  return d;
}

void BlockChecksums::rebuild(std::size_t g,
                             std::span<const std::uint8_t> data) {
  const auto [off, len] = group_range(g);
  (void)off;
  DL_REQUIRE(data.size() == len, "group data span has the wrong length");
  compute(data, stored(g));
}

std::uint8_t BlockChecksums::checksum_byte(std::size_t g,
                                           std::size_t byte) const {
  DL_REQUIRE(byte < stride_, "checksum byte out of range");
  return stored(g)[byte];
}

void BlockChecksums::flip_checksum_bit(std::size_t g, std::size_t byte,
                                       unsigned bit) {
  DL_REQUIRE(byte < stride_ && bit < 8, "checksum bit address out of range");
  auto s = stored(g);
  s[byte] = dl::flip_bit(s[byte], bit);
}

}  // namespace dl::integrity
