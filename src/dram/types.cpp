#include "dram/types.hpp"

#include <sstream>

#include "common/bits.hpp"

namespace dl::dram {

Geometry Geometry::ddr4_32gb_16bank() {
  // 32 GiB = 1 channel x 2 ranks x 16 banks x 128 subarrays x 1024 rows
  //          x 8 KiB rows.
  Geometry g;
  g.channels = 1;
  g.ranks = 2;
  g.banks = 16;
  g.subarrays_per_bank = 128;
  g.rows_per_subarray = 1024;
  g.row_bytes = 8192;
  return g;
}

Geometry Geometry::tiny() {
  Geometry g;
  g.channels = 1;
  g.ranks = 1;
  g.banks = 2;
  g.subarrays_per_bank = 4;
  g.rows_per_subarray = 64;
  g.row_bytes = 256;
  return g;
}

std::string RowAddress::to_string() const {
  std::ostringstream os;
  os << "ch" << channel << ".rk" << rank << ".bk" << bank << ".sa" << subarray
     << ".r" << row;
  return os.str();
}

GlobalRowId to_global(const Geometry& g, const RowAddress& a) {
  DL_REQUIRE(a.channel < g.channels && a.rank < g.ranks && a.bank < g.banks &&
                 a.subarray < g.subarrays_per_bank &&
                 a.row < g.rows_per_subarray,
             "row address out of geometry bounds");
  GlobalRowId id = a.channel;
  id = id * g.ranks + a.rank;
  id = id * g.banks + a.bank;
  id = id * g.subarrays_per_bank + a.subarray;
  id = id * g.rows_per_subarray + a.row;
  return id;
}

RowAddress from_global(const Geometry& g, GlobalRowId id) {
  DL_REQUIRE(id < g.total_rows(), "global row id out of range");
  // Peel the coordinates off lowest first; each step is a shift and a mask
  // for the power-of-two dimensions of every shipped geometry.
  RowAddress a;
  QuotRem q = div_mod(id, g.rows_per_subarray);
  a.row = static_cast<std::uint32_t>(q.rem);
  q = div_mod(q.quot, g.subarrays_per_bank);
  a.subarray = static_cast<std::uint32_t>(q.rem);
  q = div_mod(q.quot, g.banks);
  a.bank = static_cast<std::uint32_t>(q.rem);
  q = div_mod(q.quot, g.ranks);
  a.rank = static_cast<std::uint32_t>(q.rem);
  a.channel = static_cast<std::uint32_t>(q.quot);
  return a;
}

bool same_subarray(const RowAddress& a, const RowAddress& b) {
  return a.channel == b.channel && a.rank == b.rank && a.bank == b.bank &&
         a.subarray == b.subarray;
}

std::uint32_t row_distance(const RowAddress& a, const RowAddress& b) {
  DL_REQUIRE(same_subarray(a, b), "row distance requires same subarray");
  return a.row > b.row ? a.row - b.row : b.row - a.row;
}

}  // namespace dl::dram
