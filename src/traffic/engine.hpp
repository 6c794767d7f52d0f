// Multi-tenant DRAM traffic engine.
//
// The engine interleaves N tenant streams through the per-bank FR-FCFS
// scheduler in rounds: each round every tenant injects up to its burst of
// requests (skipping tenants whose target bank queue is full), then one
// drain pass services up to `batch` requests per bank.  The round structure
// is what creates *contention*: with more than one tenant the bank queues
// hold interleaved requests and the scheduler's policy decides who wins
// the row buffer.
//
// Everything is deterministic — fixed tenant order, fixed bank walk,
// tenant-private RNG streams — so campaigns that embed an engine can be
// fanned out over dl::parallel with bit-identical results for any
// DL_THREADS value.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "traffic/frfcfs.hpp"
#include "traffic/stream.hpp"

namespace dl::traffic {

/// Admission-control policy for one engine run (scenario::TrafficSpec
/// carries it into serve campaigns).  Disabled (the default) reproduces
/// the pre-admission engine byte-for-byte: rejected enqueues stall the
/// tenant head-of-line and retry forever, nothing is shed or failed.
struct AdmissionSpec {
  bool enabled = false;
  /// Consecutive enqueue rejections tolerated per request before the
  /// request is failed (popped with explicit accounting, never silently).
  std::uint32_t retry_budget = 8;
  /// Simulated protocol time charged per rejected enqueue before the
  /// retry — deterministic backoff on the controller clock.
  Picoseconds retry_backoff = 0;
  /// Latency samples required before a tenant's p99 is trusted for
  /// SLO-based shedding (cold-start guard).
  std::uint32_t min_latency_samples = 16;
};

/// Per-tenant outcome statistics.  Plain value type: safe to copy across
/// threads once a run completes; merge() is the only mutator campaigns
/// use (cycle accumulation, always on the owning thread).
struct TenantStats {
  std::string name;
  StreamKind kind = StreamKind::kSynthetic;
  std::uint64_t issued = 0;       ///< requests handed to the scheduler
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;       ///< blocked by the access gate
  /// Enqueue attempts refused on a full bank ring (back-pressure stalls;
  /// without admission control the request is retried next round, never
  /// dropped; with it, each rejection consumes retry budget).
  std::uint64_t rejected_enqueues = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t hammer_acts = 0;  ///< granted ACT-only requests
  std::uint64_t row_hits = 0;     ///< granted requests hitting an open row
  std::uint64_t data_bytes = 0;   ///< bytes moved by granted reads/writes
  Picoseconds service_time = 0;   ///< controller latency of own requests
  /// Queue latency (enqueue -> completion, simulated time) per request;
  /// kept raw so merged stats across cycles still yield exact percentiles.
  std::vector<Picoseconds> queue_latency;

  // Admission-control outcomes (all zero — and the report block absent —
  // unless the engine ran with AdmissionSpec::enabled).
  bool admission = false;            ///< engine ran with admission control
  std::uint64_t retried = 0;         ///< enqueues retried after rejection
  std::uint64_t shed = 0;            ///< requests load-shed at injection
  std::uint64_t failed = 0;          ///< requests failed (retry budget dry)
  std::uint64_t deadline_misses = 0; ///< completions past spec.deadline

  [[nodiscard]] double row_hit_rate() const;
  /// Nearest-rank latency percentile over the recorded samples (q in
  /// [0,1]): the smallest sample covering a q-fraction of the set.
  [[nodiscard]] Picoseconds latency_quantile(double q) const;

  /// Accumulates another run of the same tenant (stats added, latency
  /// samples appended).
  void merge(const TenantStats& other);
};

/// Outcome of one engine run.
struct TrafficReport {
  std::vector<TenantStats> tenants;
  std::uint64_t serviced = 0;
  Picoseconds elapsed = 0;  ///< controller time consumed by the run
};

/// `elapsed` scales the attacker ACT-throughput figure; pass the campaign
/// total when reporting merged cycles.
[[nodiscard]] dl::json::Value to_json(const TenantStats& t,
                                      Picoseconds elapsed);
[[nodiscard]] dl::json::Value to_json(const TrafficReport& report);

/// Exact nearest-rank p99 of a growing sample set — always equal to
/// TenantStats::latency_quantile(0.99) over the samples added so far.  A
/// max-heap holds the rank-many smallest samples (its top is the p99) and
/// a min-heap the rest, so a new sample costs O(log n), not a re-sort.
class P99Tracker {
 public:
  void add(Picoseconds sample);
  /// Pre-sizes both heaps for `samples` adds (high_ never holds more than
  /// 1% of them), so feeding the tracker never reallocates.
  void reserve(std::size_t samples) {
    low_.reserve(samples);
    high_.reserve(samples / 100 + 1);
  }
  [[nodiscard]] std::size_t size() const { return low_.size() + high_.size(); }
  /// 0 while empty.
  [[nodiscard]] Picoseconds value() const {
    return low_.empty() ? 0 : low_.front();
  }

 private:
  std::vector<Picoseconds> low_;   ///< max-heap: samples up to the rank
  std::vector<Picoseconds> high_;  ///< min-heap: samples above it
};

/// Thread safety: none — an engine owns one controller's request flow for
/// the duration of run().  Determinism: with fixed tenant specs the full
/// service order, all statistics, and every byte moved are identical on
/// any machine and any DL_THREADS value (the engine itself never uses the
/// parallel pool; campaigns fan out *around* engines, not inside them).
class TrafficEngine {
 public:
  /// Observer of granted data reads, called after statistics are recorded.
  /// `Serviced::data` views scheduler scratch — valid only during the
  /// call.  Integrity scrubbers subscribe here to verify scrub chunks
  /// (src/integrity/scrubber.hpp) while their reads stay tenant-accounted.
  using DataSink = std::function<void(const Serviced&)>;

  /// Tenant ids are positions in `tenants`; empty spec names default to
  /// "t<i>/<kind>".
  TrafficEngine(dl::dram::Controller& ctrl, std::vector<StreamSpec> tenants,
                const SchedulerConfig& scheduler = {},
                const AdmissionSpec& admission = {});

  /// Installs the single data-read observer (empty function clears it).
  /// The sink may issue its own controller traffic (e.g. recovery writes)
  /// but must not touch the engine or scheduler.
  void set_data_sink(DataSink sink) { data_sink_ = std::move(sink); }

  /// Runs every stream to exhaustion and drains the queues.
  TrafficReport run();

 private:
  dl::dram::Controller& ctrl_;
  FrFcfsScheduler scheduler_;
  std::vector<Stream> streams_;
  std::vector<TenantStats> stats_;
  AdmissionSpec admission_;
  DataSink data_sink_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t serviced_ = 0;
  /// Consecutive rejections of the current head request, per tenant.
  std::vector<std::uint32_t> retry_count_;
  /// Per-tenant deadline / SLO copied from the spec (stats stay pure
  /// outcome counters).
  std::vector<Picoseconds> deadline_;
  std::vector<Picoseconds> slo_p99_;

  /// Per-tenant p99 for SLO shedding, fed only every kP99Stride new
  /// samples (an SLO breach persists across strides), so shed decisions
  /// read the p99 as of the last refresh.
  std::vector<P99Tracker> p99_;

  static constexpr std::size_t kP99Stride = 32;

  /// Tenant whose head request was rejected on a full bank.  While the
  /// indirection epoch is unchanged and that bank is still full, the same
  /// request would decode to the same bank and be rejected again, so the
  /// engine accounts the rejection without re-peeking or re-enqueueing.
  struct Park {
    bool active = false;
    std::size_t bank = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<Park> park_;

  void record(const Serviced& s);
  /// True when admission control should shed tenant `i`'s next request.
  [[nodiscard]] bool should_shed(std::size_t i);
  [[nodiscard]] bool parked(std::size_t i) const;
  /// Consumes tenant `i`'s head request (issued, shed or failed).
  void pop_head(std::size_t i);
};

}  // namespace dl::traffic
