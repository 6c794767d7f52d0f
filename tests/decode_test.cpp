// Equivalence tests for the divide-free row decode.
//
// dl::div_mod replaces hardware divides on the access path with a shift and
// a mask when the divisor is a power of two.  Every decode built on it is
// checked here, row by row, against a reference written with plain `/` and
// `%`: once on a power-of-two geometry (the shift path) and once on a
// geometry with no power-of-two dimension (the fallback path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "common/bits.hpp"
#include "dram/address_map.hpp"
#include "dram/controller.hpp"
#include "dram/timing.hpp"
#include "dram/types.hpp"
#include "rowhammer/disturbance.hpp"

namespace {

using namespace dl::dram;

// ------------------------------------------------------------- reference

RowAddress ref_from_global(const Geometry& g, GlobalRowId id) {
  RowAddress a;
  a.row = static_cast<std::uint32_t>(id % g.rows_per_subarray);
  id /= g.rows_per_subarray;
  a.subarray = static_cast<std::uint32_t>(id % g.subarrays_per_bank);
  id /= g.subarrays_per_bank;
  a.bank = static_cast<std::uint32_t>(id % g.banks);
  id /= g.banks;
  a.rank = static_cast<std::uint32_t>(id % g.ranks);
  a.channel = static_cast<std::uint32_t>(id / g.ranks);
  return a;
}

GlobalRowId ref_to_global(const Geometry& g, const RowAddress& a) {
  return (((static_cast<GlobalRowId>(a.channel) * g.ranks + a.rank) * g.banks +
           a.bank) *
              g.subarrays_per_bank +
          a.subarray) *
             g.rows_per_subarray +
         a.row;
}

RowByte ref_row_and_byte(const Geometry& g, MapScheme scheme, PhysAddr addr) {
  const std::uint64_t linear = addr / g.row_bytes;
  const auto byte = static_cast<std::uint32_t>(addr % g.row_bytes);
  if (scheme == MapScheme::kRowBankColumn) return {linear, byte};
  const std::uint64_t bank_index = linear % g.total_banks();
  const std::uint64_t stripe = linear / g.total_banks();
  RowAddress a;
  a.row = static_cast<std::uint32_t>(stripe % g.rows_per_subarray);
  a.subarray = static_cast<std::uint32_t>(stripe / g.rows_per_subarray);
  a.bank = static_cast<std::uint32_t>(bank_index % g.banks);
  a.rank = static_cast<std::uint32_t>((bank_index / g.banks) % g.ranks);
  a.channel = static_cast<std::uint32_t>(bank_index / g.banks / g.ranks);
  return {ref_to_global(g, a), byte};
}

/// Victims of one activation: distance-1 rows weigh 1, distance-2 rows
/// `w2`; only rows of the aggressor's own subarray qualify.
std::map<GlobalRowId, double> ref_neighbours(const Geometry& g,
                                             GlobalRowId row, double w2) {
  std::map<GlobalRowId, double> out;
  const RowAddress a = ref_from_global(g, row);
  for (const int off : {-2, -1, 1, 2}) {
    const std::int64_t r = static_cast<std::int64_t>(a.row) + off;
    if (r < 0 || r >= static_cast<std::int64_t>(g.rows_per_subarray)) continue;
    RowAddress v = a;
    v.row = static_cast<std::uint32_t>(r);
    out[ref_to_global(g, v)] = (off == 1 || off == -1) ? 1.0 : w2;
  }
  return out;
}

// ------------------------------------------------------------- geometries

Geometry pow2_geometry() {
  return Geometry{.channels = 2,
                  .ranks = 2,
                  .banks = 4,
                  .subarrays_per_bank = 8,
                  .rows_per_subarray = 16,
                  .row_bytes = 64};
}

/// No dimension is a power of two, so every div_mod takes `/` and `%`.
Geometry odd_geometry() {
  return Geometry{.channels = 3,
                  .ranks = 3,
                  .banks = 3,
                  .subarrays_per_bank = 5,
                  .rows_per_subarray = 6,
                  .row_bytes = 96};
}

class DivideFreeDecode : public ::testing::TestWithParam<Geometry> {};

std::string geometry_name(const ::testing::TestParamInfo<Geometry>& info) {
  return dl::is_pow2(info.param.rows_per_subarray) ? "Pow2" : "NotPow2";
}

TEST(DivMod, MatchesDivideAndModulo) {
  const std::uint64_t values[] = {0,   1,    5,          63,
                                  64,  65,   1000003,    (1ull << 40) + 17,
                                  ~0ull, ~0ull - 1};
  const std::uint64_t divisors[] = {1, 2, 3, 5, 6, 64, 96, 1000, 4096,
                                    1ull << 33, (1ull << 33) + 1, ~0ull};
  for (const auto v : values) {
    for (const auto d : divisors) {
      const dl::QuotRem q = dl::div_mod(v, d);
      EXPECT_EQ(q.quot, v / d) << v << " / " << d;
      EXPECT_EQ(q.rem, v % d) << v << " % " << d;
    }
  }
}

TEST_P(DivideFreeDecode, FromGlobalAndToGlobalMatchReferenceOnEveryRow) {
  const Geometry g = GetParam();
  for (GlobalRowId id = 0; id < g.total_rows(); ++id) {
    const RowAddress a = from_global(g, id);
    ASSERT_EQ(a, ref_from_global(g, id)) << "row " << id;
    ASSERT_EQ(to_global(g, a), id);
  }
  EXPECT_THROW(static_cast<void>(from_global(g, g.total_rows())), dl::Error);
}

TEST_P(DivideFreeDecode, RowAndByteMatchesReferenceOnEveryRow) {
  const Geometry g = GetParam();
  for (const MapScheme scheme :
       {MapScheme::kRowBankColumn, MapScheme::kBankInterleaved}) {
    const AddressMapper m(g, scheme);
    for (std::uint64_t linear = 0; linear < g.total_rows(); ++linear) {
      const PhysAddr base = linear * g.row_bytes;
      for (const std::uint64_t byte :
           {std::uint64_t{0}, std::uint64_t{1},
            std::uint64_t{g.row_bytes} - 1}) {
        const RowByte got = m.row_and_byte(base + byte);
        const RowByte want = ref_row_and_byte(g, scheme, base + byte);
        ASSERT_EQ(got.row, want.row) << "addr " << base + byte;
        ASSERT_EQ(got.byte, want.byte) << "addr " << base + byte;
      }
    }
    EXPECT_THROW(static_cast<void>(m.row_and_byte(g.total_bytes())),
                 dl::Error);
  }
}

TEST_P(DivideFreeDecode, BankOfRowMatchesReferenceOnEveryRow) {
  const Geometry g = GetParam();
  const Controller ctrl(g, ddr4_2400());
  const Topology topo = ctrl.topology();
  ASSERT_EQ(topo.bank_count(), g.total_banks());
  for (GlobalRowId id = 0; id < g.total_rows(); ++id) {
    const RowAddress a = ref_from_global(g, id);
    const std::size_t flat =
        (static_cast<std::size_t>(a.channel) * g.ranks + a.rank) * g.banks +
        a.bank;
    ASSERT_EQ(topo.bank_of_row(id), id / g.rows_per_bank()) << "row " << id;
    ASSERT_EQ(topo.bank_of_row(id), flat) << "row " << id;
  }
}

TEST_P(DivideFreeDecode, DisturbanceNeighboursMatchReferenceOnEveryRow) {
  const Geometry g = GetParam();
  Controller ctrl(g, ddr4_2400());
  constexpr double kW2 = 0.25;
  dl::rowhammer::DisturbanceConfig cfg;
  cfg.t_rh = 1'000'000;  // no flips: only the accumulation is observed
  cfg.distance2_weight = kW2;
  dl::rowhammer::DisturbanceModel model(ctrl, cfg, dl::Rng(1));
  const auto total = static_cast<std::int64_t>(g.total_rows());
  for (GlobalRowId id = 0; id < g.total_rows(); ++id) {
    model.on_activate(id, 0);
    const auto want = ref_neighbours(g, id, kW2);
    // Every row within reach of a ±2 offset (and one beyond).  Walking
    // every aggressor covers each subarray edge from both sides: the rows
    // across an edge are adjacent ids but must stay untouched.
    const auto lo = std::max<std::int64_t>(0, static_cast<std::int64_t>(id) - 3);
    const auto hi = std::min<std::int64_t>(total - 1,
                                           static_cast<std::int64_t>(id) + 3);
    for (std::int64_t v = lo; v <= hi; ++v) {
      const auto it = want.find(static_cast<GlobalRowId>(v));
      const double expect = it == want.end() ? 0.0 : it->second;
      ASSERT_EQ(model.disturbance(static_cast<GlobalRowId>(v)), expect)
          << "aggressor " << id << ", victim " << v;
    }
    model.on_refresh_window(0);
  }
  EXPECT_TRUE(model.flips().empty());
  EXPECT_THROW(model.on_activate(g.total_rows(), 0), dl::Error);
}

INSTANTIATE_TEST_SUITE_P(Geometries, DivideFreeDecode,
                         ::testing::Values(pow2_geometry(), odd_geometry()),
                         geometry_name);

}  // namespace
