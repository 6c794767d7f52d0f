// The benchmark's workloads: campaign batches generated from a workload
// seed and run as closed batches (each campaign starts only after the
// previous call returned).  See README.md for why each one exists and
// which modules it stresses or bypasses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/journal.hpp"

namespace perfbench {

/// Outcome of one pass over a workload's batch.
struct Pass {
  std::size_t campaigns = 0;
  /// Work done: simulated DRAM requests serviced through
  /// Controller::read/write/hammer (granted or denied), or BFA iterations.
  std::uint64_t ops = 0;
  /// CRC32 of report_json(...).dump() over the pass's results.
  std::uint32_t report_crc = 0;
  /// Campaigns that came back failed or broke an invariant.
  std::size_t bad_campaigns = 0;
  std::vector<std::string> problems;
  /// Rows retired onto spares, summed over the pass's campaigns.
  std::uint64_t retired_rows = 0;
  /// Host wall time spent inside the pass's campaign calls (one call runs
  /// the whole fanned-out batch in hammer-sweep).
  double call_seconds = 0.0;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Runs every campaign of the batch once, reports the results (and
  /// journals them unless `journal` is null), and checks the workload's
  /// invariants.
  virtual Pass run_pass(dl::scenario::CampaignJournal* journal) = 0;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// True when `name` measures BFA iterations rather than DRAM requests.
[[nodiscard]] bool is_bfa(const std::string& name);

/// Generates the workload's campaign specs from `seed` (and, for
/// bfa-victim, trains the victim).  Throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
