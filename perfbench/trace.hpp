// Span recorder of the traced benchmark driver.
//
// A span covers one call across a module boundary: its kind, start and
// end tick, the span open on the same thread when it began (its parent),
// and the request id current at the time (the campaign, or for batched
// runs the pass).  Each thread keeps its own open-span stack, per-kind
// totals and a bounded buffer of raw span records; nothing is shared on
// the hot path.  A span's self time is its duration minus the durations
// of its direct children, accumulated as spans close.  calibrate()
// measures what the tracer itself costs; every span's duration is net of
// its own clock reads, and a parent's self time is net of its children's
// whole open-and-close cost.
//
// Spans are opened by the driver around its own calls (campaign, report,
// journal) and, in perfbench_traced only, by the link-time wrappers in
// wraps.cpp around calls the simulator makes between its modules.
// Recording is off unless set_enabled(true); a disabled Scope costs one
// relaxed atomic load.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench::trace {

enum class Kind : std::uint8_t {
  kCampaign,         ///< scenario::run / run_serve / run_bfa, driver call
  kReport,           ///< to_json + report_json + dump + CRC32, one pass
  kJournal,          ///< CampaignJournal::record, one pass
  kEngineRun,        ///< traffic::TrafficEngine::run
  kStreamPeek,       ///< traffic::Stream::peek
  kEnqueue,          ///< traffic::FrFcfsScheduler::try_enqueue
  kPick,             ///< traffic::FrFcfsScheduler::pick
  kController,       ///< dram::Controller::read / write / hammer
  kGate,             ///< dram::AccessGate proxy (DRAM-Locker lock table)
  kMitigation,       ///< dram::Controller::row_clone / refresh_row
  kDisturbance,      ///< ActivationListener proxy: rowhammer disturbance
  kDefenseListener,  ///< ActivationListener proxy: tracker / swap defenses
  kFaults,           ///< ActivationListener proxy: faults::FaultInjector
  kResilience,       ///< ActivationListener proxy: resilience::RowRetirer
  kScrub,            ///< integrity::DramScrubber::on_read / scrub_pass
  kWeightVerify,     ///< integrity::WeightIntegrity::verify_all
  kBfaStep,          ///< attack::ProgressiveBitSearch::step
  kForward,          ///< nn::Model::forward
  kCount
};

[[nodiscard]] const char* to_string(Kind kind);

enum class Counter : std::uint8_t {
  kEnqueueRejects,  ///< try_enqueue calls that returned false
  kGranted,         ///< controller accesses granted
  kRowHits,         ///< granted controller accesses that hit an open row
  kGateDenies,      ///< gate decisions that denied the access
  kScrubBytes,      ///< bytes handed to the integrity scrubber
  kCount
};

inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
inline constexpr std::size_t kCounters =
    static_cast<std::size_t>(Counter::kCount);

struct Stat {
  std::uint64_t calls = 0;
  std::uint64_t ticks = 0;       ///< summed span durations
  std::uint64_t self_ticks = 0;  ///< durations minus direct children
};

/// Everything recorded since the last reset(), summed over threads.
struct Totals {
  std::array<Stat, kKinds> spans{};
  std::array<std::uint64_t, kCounters> counters{};
  double ns_per_tick = 1.0;
  /// What one span adds to its parent's time (from calibrate()).
  double span_cost_ns = 0.0;
  /// Fan-out regions (outermost parallel_for calls) that ran >= 2 traffic
  /// engines, and the sum over them of max / mean engine time.
  std::uint64_t fanout_regions = 0;
  double imbalance_sum = 0.0;

  [[nodiscard]] const Stat& operator[](Kind k) const {
    return spans[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t count(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double ns(Kind k) const {
    return static_cast<double>((*this)[k].ticks) * ns_per_tick;
  }
  [[nodiscard]] double self_ns(Kind k) const {
    return static_cast<double>((*this)[k].self_ticks) * ns_per_tick;
  }
};

[[nodiscard]] bool enabled();
/// Turns recording on or off.  Call only between passes, when no
/// simulator work is in flight.
void set_enabled(bool on);
/// Request id stamped on spans opened from now on.
void set_request(std::uint64_t id);

[[nodiscard]] std::uint64_t now_ticks();

/// Opens a span on the calling thread; the destructor closes it.
class Scope {
 public:
  explicit Scope(Kind kind);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ticks since the span opened (0 when recording is off).
  [[nodiscard]] std::uint64_t elapsed() const;

 private:
  bool active_;
  std::uint64_t start_ = 0;
};

/// Measures the cost of an empty span on the calling thread and subtracts
/// it from every span recorded afterwards.  Leaves recording off and the
/// totals reset.  Call once, before any work is in flight.
void calibrate();

void count(Counter c, std::uint64_t n = 1);

/// Fan-out attribution: the wrappers bracket each outermost parallel_for
/// and report every traffic engine run inside it.
void fanout_begin();
void fanout_engine(std::uint64_t ticks);
void fanout_end();

/// Sums every thread's totals.  Call only between passes.
[[nodiscard]] Totals collect();
/// Zeroes totals and drops span records.  Call only between passes.
void reset();
/// Writes the kept span records (TSV: thread, kind, start_ns, end_ns,
/// parent, request) to `path`; false when the file cannot be written.
bool write_spans(const std::string& path);

/// Frees the gate/listener proxies the wrappers installed (traced build;
/// a no-op otherwise).  Call after every campaign of a pass has returned.
void release_proxies();

}  // namespace perfbench::trace
