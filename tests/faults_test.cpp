// Tests for the deterministic fault-injection layer (src/faults): spec
// validation, the ACT-driven cadence, each fault class's observable effect,
// and same-seed reproducibility.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "defense/lock_table.hpp"
#include "dram/controller.hpp"
#include "faults/faults.hpp"
#include "integrity/checksum.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace dl;
using dram::Controller;
using dram::Geometry;
using dram::GlobalRowId;
using faults::FaultInjector;
using faults::FaultSpec;

Geometry small_geometry() {
  Geometry g;
  g.channels = 1;
  g.ranks = 1;
  g.banks = 2;
  g.subarrays_per_bank = 4;
  g.rows_per_subarray = 64;
  g.row_bytes = 256;
  return g;  // 512 rows
}

// Drives the injector's cadence directly: each call is one physical ACT.
void fire_acts(FaultInjector& injector, std::uint64_t n,
               GlobalRowId row = 0) {
  for (std::uint64_t i = 0; i < n; ++i) injector.on_activate(row, 0);
}

TEST(FaultSpec, RejectsRatesOutsideUnitInterval) {
  FaultSpec spec;
  spec.retention_rate = 1.5;
  EXPECT_THROW(spec.validate(), dl::Error);
  spec.retention_rate = 0.0;
  spec.checksum_fault_rate = -0.1;
  EXPECT_THROW(spec.validate(), dl::Error);
  spec.checksum_fault_rate = 1.0;  // inclusive bounds are fine
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultSpec, EnabledNeedsCadenceAndAFaultClass) {
  FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  spec.period_acts = 16;
  EXPECT_FALSE(spec.enabled());  // cadence alone is not a fault model
  spec.transient_rate = 0.5;
  EXPECT_TRUE(spec.enabled());
  spec.period_acts = 0;
  EXPECT_FALSE(spec.enabled());
}

TEST(FaultInjector, RejectsZeroPeriodAndOutOfRangeTarget) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  EXPECT_THROW(FaultInjector(ctrl, spec), dl::Error);  // period_acts == 0
  spec.period_acts = 8;
  spec.target_base = 500;
  spec.target_rows = 100;  // 500 + 100 > 512 total rows
  EXPECT_THROW(FaultInjector(ctrl, spec), dl::Error);
  spec.target_rows = 12;
  EXPECT_NO_THROW(FaultInjector(ctrl, spec));
}

TEST(FaultInjector, CadenceFiresEveryPeriodActs) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 4;
  spec.transient_rate = 1.0;
  FaultInjector injector(ctrl, spec);
  fire_acts(injector, 7);
  EXPECT_EQ(injector.stats().events, 1u);
  fire_acts(injector, 1);
  EXPECT_EQ(injector.stats().events, 2u);
  EXPECT_EQ(ctrl.counters().value(dram::Counter::kFaultEvents), 2.0);
}

TEST(FaultInjector, SameSeedSameFaultStream) {
  FaultSpec spec;
  spec.seed = 99;
  spec.period_acts = 2;
  spec.retention_rate = 0.5;
  spec.transient_rate = 0.5;
  spec.stuck_cells = 3;
  spec.remap_fault_rate = 0.25;
  Controller a(small_geometry(), dram::ddr4_2400());
  Controller b(small_geometry(), dram::ddr4_2400());
  FaultInjector ia(a, spec);
  FaultInjector ib(b, spec);
  fire_acts(ia, 200);
  fire_acts(ib, 200);
  EXPECT_EQ(ia.stats().events, ib.stats().events);
  EXPECT_EQ(ia.stats().retention_faults, ib.stats().retention_faults);
  EXPECT_EQ(ia.stats().transient_faults, ib.stats().transient_faults);
  EXPECT_EQ(ia.stats().stuck_overrides, ib.stats().stuck_overrides);
  EXPECT_EQ(ia.stats().remap_faults, ib.stats().remap_faults);
  // The mutated DRAM state matches row for row, byte for byte.
  const auto& g = a.geometry();
  for (GlobalRowId row = 0; row < g.total_rows(); ++row) {
    for (std::uint32_t byte = 0; byte < g.row_bytes; byte += 37) {
      ASSERT_EQ(a.data().read_byte(row, byte), b.data().read_byte(row, byte))
          << "row " << row << " byte " << byte;
    }
  }
}

TEST(FaultInjector, RetentionOnlyDischargesSetBits) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 1;
  spec.retention_rate = 1.0;
  spec.target_base = 8;
  spec.target_rows = 4;
  // Saturate the target region so every retention draw finds a set bit.
  const std::vector<std::uint8_t> ones(ctrl.geometry().row_bytes, 0xFF);
  for (GlobalRowId row = 8; row < 12; ++row) {
    ctrl.data().write(row, 0, ones);
  }
  FaultInjector injector(ctrl, spec);
  fire_acts(injector, 50);
  EXPECT_EQ(injector.stats().retention_faults, 50u);
  std::uint64_t cleared = 0;
  for (GlobalRowId row = 8; row < 12; ++row) {
    for (std::uint32_t byte = 0; byte < ctrl.geometry().row_bytes; ++byte) {
      cleared += static_cast<std::uint64_t>(
          __builtin_popcount(0xFFu ^ ctrl.data().read_byte(row, byte)));
    }
  }
  EXPECT_EQ(cleared, 50u);  // each fault discharged exactly one bit to 0
}

TEST(FaultInjector, StuckCellsReassertAfterWrites) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 1;
  spec.stuck_cells = 4;
  spec.target_base = 0;
  spec.target_rows = 8;
  FaultInjector injector(ctrl, spec);
  EXPECT_EQ(injector.stats().stuck_cells, 4u);
  const std::uint64_t after_ctor = injector.stats().stuck_overrides;
  // Overwrite the whole target region with both fill levels; each stuck
  // cell disagrees with exactly one of them, so the two injection events
  // re-assert every cell exactly once in total.
  const std::vector<std::uint8_t> zeros(ctrl.geometry().row_bytes, 0x00);
  const std::vector<std::uint8_t> ones(ctrl.geometry().row_bytes, 0xFF);
  for (GlobalRowId row = 0; row < 8; ++row) ctrl.data().write(row, 0, zeros);
  fire_acts(injector, 1);
  for (GlobalRowId row = 0; row < 8; ++row) ctrl.data().write(row, 0, ones);
  fire_acts(injector, 1);
  EXPECT_EQ(injector.stats().stuck_overrides - after_ctor, 4u);
}

TEST(FaultInjector, LockEvictionDropsOneLockedRow) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 1;
  spec.lock_evict_rate = 1.0;
  FaultInjector injector(ctrl, spec);
  // No table attached: the event draws but cannot act.
  fire_acts(injector, 1);
  EXPECT_EQ(injector.stats().lock_evictions, 0u);
  defense::LockTable table(16, ctrl.geometry().total_rows());
  for (GlobalRowId row = 10; row < 15; ++row) ASSERT_TRUE(table.lock(row));
  injector.attach_lock_table(&table);
  fire_acts(injector, 3);
  EXPECT_EQ(injector.stats().lock_evictions, 3u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FaultInjector, RemapFaultSwapsWithinTargetAndBumpsEpoch) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 1;
  spec.remap_fault_rate = 1.0;
  spec.target_base = 32;
  spec.target_rows = 16;
  FaultInjector injector(ctrl, spec);
  const std::uint64_t epoch0 = ctrl.indirection().epoch();
  fire_acts(injector, 32);  // some draws may pick a == b and skip
  const auto& stats = injector.stats();
  ASSERT_GT(stats.remap_faults, 0u);
  EXPECT_GT(ctrl.indirection().epoch(), epoch0);
  // The permutation invariant holds and only target rows are displaced.
  for (GlobalRowId logical = 0; logical < ctrl.geometry().total_rows();
       ++logical) {
    const GlobalRowId phys = ctrl.indirection().to_physical(logical);
    EXPECT_EQ(ctrl.indirection().to_logical(phys), logical);
    if (logical < 32 || logical >= 48) {
      EXPECT_EQ(phys, logical);
    }
  }
}

TEST(FaultInjector, ChecksumFaultCorruptsAttachedStorage) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 1;
  spec.checksum_fault_rate = 1.0;
  std::vector<std::uint8_t> image(128);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::uint8_t>(i * 13 + 7);
  }
  integrity::Config cfg;
  cfg.group_size = 32;
  integrity::BlockChecksums sums(cfg, image);
  FaultInjector injector(ctrl, spec);
  injector.attach_checksums(&sums);
  fire_acts(injector, 1);
  EXPECT_EQ(injector.stats().checksum_faults, 1u);
  // The data is untouched, so the corrupted group diagnoses as a checksum
  // storage fault (the verifier's checksum-repair path).
  std::size_t corrupt_groups = 0;
  for (std::size_t g = 0; g < sums.group_count(); ++g) {
    const auto [off, len] = sums.group_range(g);
    const auto d = sums.diagnose(
        g, std::span<const std::uint8_t>(image).subspan(off, len));
    if (d.state == integrity::Diagnosis::State::kChecksumCorrupt) {
      ++corrupt_groups;
    }
  }
  EXPECT_EQ(corrupt_groups, 1u);
}

// -------------------------------------------------------- chaos mutators

TEST(FaultInjector, SetPeriodActsTightensTheCadence) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 64;
  spec.transient_rate = 1.0;
  FaultInjector injector(ctrl, spec);
  fire_acts(injector, 16);
  EXPECT_EQ(injector.stats().events, 0u);
  injector.set_period_acts(4);  // chaos storm ramp
  fire_acts(injector, 16);
  EXPECT_GT(injector.stats().events, 0u);
  EXPECT_THROW(injector.set_period_acts(0), dl::Error);
}

TEST(FaultInjector, AddStuckCellsAssertsImmediately) {
  Controller ctrl(small_geometry(), dram::ddr4_2400());
  FaultSpec spec;
  spec.period_acts = 8;
  spec.transient_rate = 0.1;
  spec.target_base = 4;
  spec.target_rows = 8;
  FaultInjector injector(ctrl, spec);
  const std::uint64_t before = injector.stats().stuck_cells;
  injector.add_stuck_cells(3);
  EXPECT_EQ(injector.stats().stuck_cells, before + 3);
}

// --------------------------------------------- timing-model independence

TEST(FaultInjector, DrawSequenceIsIdenticalWithTimingOnAndOff) {
  // The injector consumes its own private RNG stream in ACT order, so the
  // cycle-approximate timing engine must not change which faults are
  // drawn.  The workload stays shorter than tREFI (7.8 us): a scheduled
  // REF would legitimately shift protocol *time*, and this test pins the
  // draw *sequence*, not the clock.
  scenario::HammerCampaign base;
  base.name = "faults-timing";
  base.env.geometry.channels = 1;
  base.env.geometry.ranks = 1;
  base.env.geometry.banks = 2;
  base.env.geometry.subarrays_per_bank = 4;
  base.env.geometry.rows_per_subarray = 128;
  base.env.geometry.row_bytes = 4096;
  base.env.disturbance.t_rh = 1000;
  base.env.faults.period_acts = 8;
  base.env.faults.transient_rate = 0.5;
  base.env.faults.retention_rate = 0.5;
  base.env.faults.stuck_cells = 2;
  base.env.faults.target_base = 16;
  base.env.faults.target_rows = 16;
  base.attack.victim_row = 20;
  base.attack.act_budget = 96;  // ~4.4 us of ACTs: under one tREFI
  base.cycles = 1;

  scenario::HammerCampaign timed = base;
  timed.env.timing_spec.enabled = true;

  const auto analytic = scenario::run_one(base);
  const auto cycle_approx = scenario::run_one(timed);
  ASSERT_EQ(analytic.status, scenario::CampaignStatus::kOk);
  ASSERT_EQ(cycle_approx.status, scenario::CampaignStatus::kOk);
  EXPECT_TRUE(cycle_approx.timed);

  EXPECT_EQ(analytic.faults.events, cycle_approx.faults.events);
  EXPECT_EQ(analytic.faults.retention_faults,
            cycle_approx.faults.retention_faults);
  EXPECT_EQ(analytic.faults.transient_faults,
            cycle_approx.faults.transient_faults);
  EXPECT_EQ(analytic.faults.stuck_cells, cycle_approx.faults.stuck_cells);
  EXPECT_EQ(analytic.faults.stuck_overrides,
            cycle_approx.faults.stuck_overrides);
  EXPECT_EQ(analytic.faults.lock_evictions,
            cycle_approx.faults.lock_evictions);
  EXPECT_EQ(analytic.faults.remap_faults, cycle_approx.faults.remap_faults);
  EXPECT_EQ(analytic.faults.checksum_faults,
            cycle_approx.faults.checksum_faults);
}

}  // namespace
