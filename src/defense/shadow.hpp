// SHADOW baseline (Wi et al., HPCA'23): intra-subarray row shuffling.
//
// SHADOW watches activation counts and, when a row has been activated
// `threshold/2` times within a refresh window, shuffles that aggressor's
// potential victim rows to random rows of the same subarray (RowClone-based
// swap through a buffer row).  The shuffle bookkeeping table is finite
// (0.16 MB in Table I ⇒ ~40960 4-byte entries); once the table is
// exhausted the defense can no longer track its displacements — system
// integrity is compromised and mitigation stops, which is the latency
// flattening visible in Fig. 7(a) and the bounded defense time of
// Fig. 7(b).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/row_table.hpp"
#include "dram/controller.hpp"

namespace dl::defense {

struct ShadowConfig {
  std::uint64_t threshold = 1000;     ///< assumed RowHammer threshold (T_RH)
  std::uint64_t table_entries = 40960;  ///< shuffle bookkeeping capacity
  std::uint32_t victim_radius = 1;    ///< rows shuffled around an aggressor
};

class Shadow final : public dl::dram::ActivationListener {
 public:
  Shadow(dl::dram::Controller& ctrl, ShadowConfig config, dl::Rng rng);

  // ActivationListener:
  void on_activate(dl::dram::GlobalRowId physical_row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;
  void on_row_refresh(dl::dram::GlobalRowId physical_row) override;

  [[nodiscard]] bool compromised() const { return compromised_; }
  [[nodiscard]] std::uint64_t shuffles() const { return shuffles_; }
  [[nodiscard]] std::uint64_t entries_used() const { return entries_used_; }
  [[nodiscard]] const ShadowConfig& config() const { return config_; }

 private:
  dl::dram::Controller& ctrl_;
  ShadowConfig config_;
  dl::Rng rng_;
  dl::RowTable<std::uint64_t> counts_;  ///< activations this window
  std::uint64_t shuffles_ = 0;
  std::uint64_t entries_used_ = 0;
  bool compromised_ = false;
  bool in_mitigation_ = false;  ///< suppress counting our own clone ACTs

  void shuffle_victims(dl::dram::GlobalRowId aggressor_phys);
  void shuffle_one(dl::dram::GlobalRowId victim_phys);
};

}  // namespace dl::defense
