// Tests for the logical-to-physical row indirection.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dram/indirection.hpp"

namespace {

using namespace dl::dram;

TEST(Indirection, IdentityByDefault) {
  RowIndirection ind(Geometry::tiny());
  for (GlobalRowId r : {0ull, 5ull, 100ull}) {
    EXPECT_EQ(ind.to_physical(r), r);
    EXPECT_EQ(ind.to_logical(r), r);
  }
  EXPECT_EQ(ind.displaced_rows(), 0u);
}

TEST(Indirection, SwapExchangesBothDirections) {
  RowIndirection ind(Geometry::tiny());
  ind.swap_logical(3, 9);
  EXPECT_EQ(ind.to_physical(3), 9u);
  EXPECT_EQ(ind.to_physical(9), 3u);
  EXPECT_EQ(ind.to_logical(9), 3u);
  EXPECT_EQ(ind.to_logical(3), 9u);
  EXPECT_EQ(ind.displaced_rows(), 2u);
}

TEST(Indirection, DoubleSwapRestoresIdentity) {
  RowIndirection ind(Geometry::tiny());
  ind.swap_logical(3, 9);
  ind.swap_logical(3, 9);
  EXPECT_EQ(ind.to_physical(3), 3u);
  EXPECT_EQ(ind.to_physical(9), 9u);
  EXPECT_EQ(ind.displaced_rows(), 0u);
}

TEST(Indirection, ChainedSwapsStayPermutation) {
  const Geometry g = Geometry::tiny();
  RowIndirection ind(g);
  // A sequence of overlapping swaps must keep the map a bijection.
  ind.swap_logical(1, 2);
  ind.swap_logical(2, 3);
  ind.swap_logical(3, 1);
  std::set<GlobalRowId> phys;
  for (GlobalRowId l : {1ull, 2ull, 3ull}) {
    const GlobalRowId p = ind.to_physical(l);
    EXPECT_EQ(ind.to_logical(p), l);
    phys.insert(p);
  }
  EXPECT_EQ(phys.size(), 3u);
}

TEST(Indirection, SelfSwapIsNoop) {
  RowIndirection ind(Geometry::tiny());
  ind.swap_logical(4, 4);
  EXPECT_EQ(ind.to_physical(4), 4u);
  EXPECT_EQ(ind.displaced_rows(), 0u);
}

TEST(Indirection, ResetClearsEverything) {
  RowIndirection ind(Geometry::tiny());
  ind.swap_logical(1, 2);
  ind.reset();
  EXPECT_EQ(ind.to_physical(1), 1u);
  EXPECT_EQ(ind.displaced_rows(), 0u);
}

TEST(Indirection, DisplacedCountReturnsToZeroAfterSwapBack) {
  RowIndirection ind(Geometry::tiny());
  const std::uint64_t epoch0 = ind.epoch();
  ind.swap_logical(3, 9);
  ind.swap_logical(9, 300);  // chains through a row on another page
  EXPECT_EQ(ind.displaced_rows(), 3u);
  ind.swap_logical(9, 300);
  EXPECT_EQ(ind.displaced_rows(), 2u);
  ind.swap_logical(3, 9);
  EXPECT_EQ(ind.displaced_rows(), 0u);
  EXPECT_EQ(ind.epoch(), epoch0 + 4);
  for (const GlobalRowId r : {3ull, 9ull, 300ull}) {
    EXPECT_EQ(ind.to_physical(r), r);
    EXPECT_EQ(ind.to_logical(r), r);
  }
}

TEST(Indirection, MatchesReferencePermutationUnderRandomSwaps) {
  const Geometry g = Geometry::tiny();
  const std::uint64_t n = g.total_rows();
  RowIndirection ind(g);
  std::vector<GlobalRowId> fwd(n);  // logical -> physical
  std::iota(fwd.begin(), fwd.end(), GlobalRowId{0});
  dl::Rng rng(7);
  for (int step = 1; step <= 3000; ++step) {
    // Mostly a small hot set, so swaps often undo earlier ones.
    const std::uint64_t span = rng.chance(0.8) ? 12 : n;
    const GlobalRowId a = rng.next_below(span);
    const GlobalRowId b = rng.next_below(span);
    ind.swap_logical(a, b);
    std::swap(fwd[a], fwd[b]);
    if (step == 1500) {
      ind.reset();
      std::iota(fwd.begin(), fwd.end(), GlobalRowId{0});
    }
    if (step % 100 != 0) continue;
    std::size_t displaced = 0;
    for (GlobalRowId l = 0; l < n; ++l) {
      ASSERT_EQ(ind.to_physical(l), fwd[l]) << "step " << step;
      ASSERT_EQ(ind.to_logical(fwd[l]), l) << "step " << step;
      if (fwd[l] != l) ++displaced;
    }
    ASSERT_EQ(ind.displaced_rows(), displaced) << "step " << step;
  }
}

TEST(Indirection, OutOfRangeRejected) {
  const Geometry g = Geometry::tiny();
  RowIndirection ind(g);
  EXPECT_THROW(static_cast<void>(ind.to_physical(g.total_rows())), dl::Error);
  EXPECT_THROW(ind.swap_logical(0, g.total_rows()), dl::Error);
}

}  // namespace
