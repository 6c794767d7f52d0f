// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "defense/row_swap.hpp"

#include <vector>

#include "common/error.hpp"
#include "defense/trackers.hpp"

namespace dl::defense {

using dl::dram::from_global;
using dl::dram::GlobalRowId;
using dl::dram::RowAddress;
using dl::dram::to_global;

RowSwap::RowSwap(dl::dram::Controller& ctrl, RowSwapConfig config, dl::Rng rng)
    : ctrl_(ctrl),
      config_(config),
      rng_(rng),
      counts_(ctrl.geometry().total_rows(), 0) {
  DL_REQUIRE(config_.threshold >= 2, "threshold too small");
}

void RowSwap::on_activate(GlobalRowId row, Picoseconds) {
  if (in_mitigation_) return;
  std::uint64_t& c = counts_.at(row);
  if (++c >= config_.threshold / 2) {
    c = 0;
    migrate(row);
  }
}

void RowSwap::channel_swap(GlobalRowId phys_a, GlobalRowId phys_b) {
  auto& data = ctrl_.data();
  const std::uint32_t row_bytes = ctrl_.geometry().row_bytes;
  std::vector<std::uint8_t> tmp_a(row_bytes), tmp_b(row_bytes);
  data.read(phys_a, 0, tmp_a);
  data.read(phys_b, 0, tmp_b);
  data.write(phys_a, 0, tmp_b);
  data.write(phys_b, 0, tmp_a);
  // Cost model: both rows stream through the channel twice (read + write),
  // 64-byte bursts.
  const Picoseconds burst = ctrl_.timing().hit_latency();
  const std::int64_t bursts = 2LL * 2LL * (row_bytes / 64);
  ctrl_.advance_time(burst * bursts / 8);  // 8-deep command pipelining
  ctrl_.counters().add(dl::dram::Counter::kChannelSwaps);
}

void RowSwap::migrate(GlobalRowId aggressor_phys) {
  if (config_.swap_budget > 0 && swaps_ >= config_.swap_budget) {
    // Budget spent: fall back to a targeted refresh of the aggressor's
    // neighbours.  No RNG draw happens on this path, so the partner stream
    // of earlier (budgeted) swaps is unaffected.
    in_mitigation_ = true;
    refresh_neighbors(ctrl_, aggressor_phys, config_.degrade_radius);
    in_mitigation_ = false;
    ++degraded_;
    ctrl_.counters().add(dl::dram::Counter::kDegradedSwaps);
    return;
  }
  const auto& g = ctrl_.geometry();
  const RowAddress a = from_global(g, aggressor_phys);
  // Random partner anywhere in the same bank.
  RowAddress partner = a;
  partner.subarray =
      static_cast<std::uint32_t>(rng_.next_below(g.subarrays_per_bank));
  partner.row =
      static_cast<std::uint32_t>(rng_.next_below(g.rows_per_subarray));
  const GlobalRowId partner_phys = to_global(g, partner);
  if (partner_phys == aggressor_phys) return;

  in_mitigation_ = true;
  {
    dl::dram::DefenseScope scope(ctrl_);
    channel_swap(aggressor_phys, partner_phys);
  }
  in_mitigation_ = false;

  const GlobalRowId la = ctrl_.indirection().to_logical(aggressor_phys);
  const GlobalRowId lb = ctrl_.indirection().to_logical(partner_phys);
  ctrl_.indirection().swap_logical(la, lb);
  ++swaps_;
  if (config_.lazy_unswap) active_swaps_.emplace_back(la, lb);
}

void RowSwap::on_refresh_window(Picoseconds) {
  counts_.reset();
  if (!config_.lazy_unswap) return;
  // SRS: restore the original layout lazily at the window boundary.
  in_mitigation_ = true;
  for (const auto& [la, lb] : active_swaps_) {
    dl::dram::DefenseScope scope(ctrl_);
    channel_swap(ctrl_.indirection().to_physical(la),
                 ctrl_.indirection().to_physical(lb));
    ctrl_.indirection().swap_logical(la, lb);
    ++unswaps_;
  }
  in_mitigation_ = false;
  active_swaps_.clear();
}

}  // namespace dl::defense
