#include "rowhammer/disturbance.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"

namespace dl::rowhammer {

using dl::dram::GlobalRowId;

DisturbanceModel::DisturbanceModel(dl::dram::Controller& ctrl,
                                   DisturbanceConfig config, dl::Rng rng)
    : ctrl_(ctrl),
      config_(config),
      rng_(rng),
      accum_(ctrl.geometry().total_rows(), 0.0) {
  DL_REQUIRE(config_.t_rh > 0, "T_RH must be positive");
  DL_REQUIRE(config_.distance2_weight >= 0.0 && config_.distance2_weight <= 1.0,
             "distance-2 weight in [0,1]");
}

void DisturbanceModel::on_activate(GlobalRowId physical_row, Picoseconds now) {
  DL_REQUIRE(physical_row < accum_.rows(), "global row id out of range");
  // Neighbours at distance 1 and (optionally) 2, staying inside the subarray.
  // The row index within the subarray is the lowest coordinate of a global
  // row id, so a neighbour at offset k is simply physical_row + k.
  const std::int64_t rows = ctrl_.geometry().rows_per_subarray;
  const auto row = static_cast<std::int64_t>(
      dl::div_mod(physical_row, static_cast<std::uint64_t>(rows)).rem);
  struct Neighbour {
    std::int64_t offset;
    double weight;
  };
  const Neighbour neighbours[] = {
      {-1, 1.0}, {+1, 1.0},
      {-2, config_.distance2_weight}, {+2, config_.distance2_weight}};
  for (const auto& nb : neighbours) {
    if (nb.weight <= 0.0) continue;
    const std::int64_t r = row + nb.offset;
    if (r < 0 || r >= rows) continue;
    add_disturbance(physical_row + static_cast<std::uint64_t>(nb.offset),
                    nb.weight, now);
  }
}

void DisturbanceModel::add_disturbance(GlobalRowId victim, double amount,
                                       Picoseconds now) {
  double& acc = accum_.at(victim);
  acc += amount;
  if (acc >= static_cast<double>(config_.t_rh)) {
    inject_flips(victim, now);
    acc = 0.0;  // the disturbed cells have discharged; accumulation restarts
  }
}

void DisturbanceModel::inject_flips(GlobalRowId victim, Picoseconds now) {
  const auto& g = ctrl_.geometry();
  for (unsigned i = 0; i < config_.max_flips_per_event; ++i) {
    FlipEvent ev;
    ev.victim_row = victim;
    ev.at = now;
    if (config_.deterministic_bits) {
      ev.byte = 0;
      ev.bit = 0;
    } else {
      ev.byte = static_cast<std::uint32_t>(rng_.next_below(g.row_bytes));
      ev.bit = static_cast<unsigned>(rng_.next_below(8));
    }
    ctrl_.data().flip_bit(ev.victim_row, ev.byte, ev.bit);
    flips_.push_back(ev);
    ++total_flips_;
    if (callback_) callback_(ev);
  }
}

void DisturbanceModel::on_refresh_window(Picoseconds) { accum_.reset(); }

void DisturbanceModel::on_row_refresh(GlobalRowId physical_row) {
  accum_.reset(physical_row);
}

double DisturbanceModel::disturbance(GlobalRowId row) const {
  return accum_.get(row);
}

}  // namespace dl::rowhammer
