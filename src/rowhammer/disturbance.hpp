// RowHammer disturbance model.
//
// Standard activation-counting abstraction (as used by Ramulator-class
// simulators): each activation of a physical row adds disturbance to its
// neighbours with a distance-dependent weight; when a victim's accumulated
// disturbance within one refresh window crosses the generation's RowHammer
// threshold T_RH, bits flip in that row.  Refreshing a row (explicitly or by
// the auto-refresh window) clears its accumulation.
//
// Blast radius follows the threat model of the paper: distance-1 victims
// take full disturbance; distance-2 victims take a configurable fraction
// (Half-Double-style coupling, Kogler et al. USENIX Sec'22).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/row_table.hpp"
#include "dram/controller.hpp"
#include "dram/types.hpp"

namespace dl::rowhammer {

/// Physics knobs of the disturbance model.
struct DisturbanceConfig {
  std::uint64_t t_rh = 10000;    ///< activations to flip a distance-1 victim
  double distance2_weight = 0.2; ///< Half-Double coupling (0 disables)
  unsigned max_flips_per_event = 1;  ///< bits flipped when threshold crossed
  bool deterministic_bits = false;   ///< victims flip bit 0 of byte 0 if true
};

/// Record of one injected fault.
struct FlipEvent {
  dl::dram::GlobalRowId victim_row = 0;
  std::uint32_t byte = 0;
  unsigned bit = 0;
  Picoseconds at = 0;
};

class DisturbanceModel final : public dl::dram::ActivationListener {
 public:
  DisturbanceModel(dl::dram::Controller& ctrl, DisturbanceConfig config,
                   dl::Rng rng);

  // ActivationListener:
  void on_activate(dl::dram::GlobalRowId physical_row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;
  void on_row_refresh(dl::dram::GlobalRowId physical_row) override;

  /// Accumulated disturbance of a row in the current window.
  [[nodiscard]] double disturbance(dl::dram::GlobalRowId row) const;

  /// All faults injected so far.
  [[nodiscard]] const std::vector<FlipEvent>& flips() const { return flips_; }

  /// Total flips injected (monotone counter, survives clear_flips()).
  [[nodiscard]] std::uint64_t total_flips() const { return total_flips_; }

  void clear_flips() { flips_.clear(); }

  /// Optional callback fired on every injected flip.
  void set_flip_callback(std::function<void(const FlipEvent&)> cb) {
    callback_ = std::move(cb);
  }

  /// Replaces the callback and returns the previous one (FlipCallbackScope).
  std::function<void(const FlipEvent&)> exchange_flip_callback(
      std::function<void(const FlipEvent&)> cb) {
    std::swap(cb, callback_);
    return cb;
  }

  [[nodiscard]] const DisturbanceConfig& config() const { return config_; }

 private:
  dl::dram::Controller& ctrl_;
  DisturbanceConfig config_;
  dl::Rng rng_;
  dl::RowTable<double> accum_;  ///< per-row disturbance this window
  std::vector<FlipEvent> flips_;
  std::uint64_t total_flips_ = 0;
  std::function<void(const FlipEvent&)> callback_;

  void add_disturbance(dl::dram::GlobalRowId victim, double amount,
                       Picoseconds now);
  void inject_flips(dl::dram::GlobalRowId victim, Picoseconds now);
};

/// RAII flip-callback installer.  The disturbance model is shared between
/// attack drivers; installing through this scope guarantees the previous
/// callback is restored even when the protected region throws, so no stale
/// callback (with dangling captures) can outlive its stack frame.
class FlipCallbackScope {
 public:
  FlipCallbackScope(DisturbanceModel& model,
                    std::function<void(const FlipEvent&)> cb)
      : model_(model),
        previous_(model.exchange_flip_callback(std::move(cb))) {}
  ~FlipCallbackScope() { model_.set_flip_callback(std::move(previous_)); }
  FlipCallbackScope(const FlipCallbackScope&) = delete;
  FlipCallbackScope& operator=(const FlipCallbackScope&) = delete;

 private:
  DisturbanceModel& model_;
  std::function<void(const FlipEvent&)> previous_;
};

}  // namespace dl::rowhammer
