// Randomized Row-Swap (RRS, Saileshwar et al., ASPLOS'22) and Secure
// Row-Swap (SRS, Woo et al.) — aggressor-focused swap baselines.
//
// Both detect hot aggressor rows (at threshold/2) and migrate them to a
// random row of the same bank, breaking the attacker's knowledge of
// physical adjacency.  Unlike SHADOW the swap is aggressor-directed.  A
// cross-subarray migration cannot use RowClone, so it pays a full
// through-the-channel copy cost.  SRS additionally unswaps lazily at the
// end of the refresh window, halving steady-state bookkeeping (its Table I
// row reports a smaller footprint).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/row_table.hpp"
#include "dram/controller.hpp"

namespace dl::defense {

struct RowSwapConfig {
  std::uint64_t threshold = 1000;  ///< assumed T_RH; swap at threshold/2
  bool lazy_unswap = false;        ///< SRS behaviour when true
  /// Migrations allowed per campaign (0 = unlimited).  Once spent, a hot
  /// aggressor degrades to a targeted neighbour refresh instead of the full
  /// through-the-channel swap — protection weakens to tracker level rather
  /// than stopping.
  std::uint64_t swap_budget = 0;
  std::uint32_t degrade_radius = 2;  ///< refresh radius of the degraded path
};

class RowSwap final : public dl::dram::ActivationListener {
 public:
  RowSwap(dl::dram::Controller& ctrl, RowSwapConfig config, dl::Rng rng);

  void on_activate(dl::dram::GlobalRowId row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;

  [[nodiscard]] std::uint64_t swaps() const { return swaps_; }
  [[nodiscard]] std::uint64_t unswaps() const { return unswaps_; }
  [[nodiscard]] std::uint64_t degraded() const { return degraded_; }
  [[nodiscard]] const RowSwapConfig& config() const { return config_; }

 private:
  dl::dram::Controller& ctrl_;
  RowSwapConfig config_;
  dl::Rng rng_;
  dl::RowTable<std::uint64_t> counts_;  ///< activations this window
  std::vector<std::pair<dl::dram::GlobalRowId, dl::dram::GlobalRowId>>
      active_swaps_;  ///< logical pairs swapped this window (for unswap)
  std::uint64_t swaps_ = 0;
  std::uint64_t unswaps_ = 0;
  std::uint64_t degraded_ = 0;  ///< mitigations downgraded to refreshes
  bool in_mitigation_ = false;

  void migrate(dl::dram::GlobalRowId aggressor_phys);

  /// Swaps the *contents and mapping* of two physical rows using channel
  /// reads/writes (works across subarrays); charges the copy latency.
  void channel_swap(dl::dram::GlobalRowId phys_a, dl::dram::GlobalRowId phys_b);
};

}  // namespace dl::defense
