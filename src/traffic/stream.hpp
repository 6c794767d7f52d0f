// Tenant request streams for the multi-tenant DRAM traffic engine.
//
// A stream is one tenant's declarative access pattern, turned into a
// deterministic sequence of controller requests:
//
//   kWeightReader — a benign DNN-serving tenant replaying a quantized
//     weight image's row layout: sequential reads sweep each row of
//     [base_row, base_row + rows) in bytes_per_read chunks, then wrap
//     (inference reads the image layer by layer, every batch).
//   kSynthetic    — filler / web-serving mix: row picked from the tenant's
//     range with a locality knob (probability the next request stays in
//     the current row) and a read/write mix, from a private RNG stream.
//   kHammer       — a co-located attacker round-robinning ACTs over the
//     aggressor set of a rowhammer::HammerPattern (no data transfer).
//   kScrub        — a privileged integrity-scrub service sweeping an
//     explicit row list in checksum-group-sized chunks (src/integrity);
//     the engine's data sink hands the serviced bytes to the verifier, so
//     scrub bandwidth and queueing contend like any other tenant's.
//
// Streams only *describe* traffic; the FR-FCFS scheduler (frfcfs.hpp)
// decides service order and the engine (engine.hpp) issues the requests
// through the controller so gates, listeners, and defense mitigation
// traffic all stay on the accounted path.
//
// Determinism contract: a Stream is a pure function of (spec, tenant id,
// controller geometry) — kSynthetic draws only from its private
// spec.seed stream, every other kind is cursor-driven — so identical
// specs replay identical request sequences on any machine and any
// DL_THREADS value.  Thread safety: none; a Stream belongs to one engine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dram/controller.hpp"
#include "rowhammer/attacker.hpp"

namespace dl::nn {
class QuantizedModel;
}

namespace dl::traffic {

enum class StreamKind : std::uint8_t {
  kWeightReader,
  kSynthetic,
  kHammer,
  kScrub,
};

[[nodiscard]] const char* to_string(StreamKind kind);

/// One queued DRAM request.  bytes == 0 marks an ACT-only hammer request.
struct Request {
  dl::dram::PhysAddr addr = 0;
  std::uint32_t bytes = 0;
  bool is_write = false;
  bool can_unlock = false;
  std::uint16_t tenant = 0;
  /// Arrival tag (the engine stamps a global injection index).  Purely
  /// diagnostic: service order is decided per bank by the scheduler, not
  /// by this field.
  std::uint64_t seq = 0;
  Picoseconds enqueued_at = 0;    ///< controller clock at enqueue

  /// Decoded once by the scheduler at enqueue; fixed by the immutable
  /// address map.  The physical row it maps to can move while the request
  /// is queued (swap defenses), so the scheduler's bank queue tracks that.
  dl::dram::GlobalRowId logical_row = 0;
};

/// Declarative description of one tenant's traffic.  Fields irrelevant to
/// the selected kind are ignored, so campaign matrices can sweep tenant
/// mixes uniformly.
struct StreamSpec {
  StreamKind kind = StreamKind::kSynthetic;
  std::string name;             ///< report label; engine derives one if empty
  std::uint64_t requests = 0;   ///< total requests this tenant issues
  std::uint32_t burst = 4;      ///< requests injected per engine round
  bool can_unlock = false;      ///< privileged (may trigger unlock SWAPs)

  // kWeightReader / kSynthetic: the tenant's row working set.
  dl::dram::GlobalRowId base_row = 0;
  std::uint64_t rows = 1;
  std::uint32_t bytes_per_access = 64;

  // kSynthetic
  double locality = 0.5;        ///< P(next request stays in the current row)
  double write_fraction = 0.0;
  std::uint64_t seed = 1;       ///< tenant-private RNG stream

  /// kHammer
  dl::rowhammer::HammerPattern pattern =
      dl::rowhammer::HammerPattern::kDoubleSided;
  dl::dram::GlobalRowId victim_row = 0;

  /// kScrub: explicit (possibly non-contiguous) rows to sweep; chunk size
  /// is bytes_per_access and must divide the geometry's row_bytes.
  std::vector<dl::dram::GlobalRowId> scrub_rows;

  /// Fabric placement pin: -1 lets the fabric shard this tenant's working
  /// set across channels under the interleave policy; >= 0 forces every
  /// request onto that channel.  Pinning requires row-blocked interleave
  /// and a working set fully owned by the pinned channel (validated by
  /// traffic::validate_fabric_tenants); single-controller engines ignore
  /// the field.
  std::int32_t pin_channel = -1;

  // Admission-control SLOs (active only when the engine's AdmissionSpec is
  // enabled; see traffic/engine.hpp).
  /// Queue-latency p99 SLO: once the tenant's observed p99 exceeds this,
  /// new requests are load-shed at injection.  0 = no shedding.
  Picoseconds slo_p99 = 0;
  /// Per-request completion deadline; requests finishing later count as
  /// deadline misses in the tenant's admission stats.  0 = no deadline.
  Picoseconds deadline = 0;

  static StreamSpec weight_reader(dl::dram::GlobalRowId base_row,
                                  std::uint64_t rows, std::uint64_t requests,
                                  std::uint32_t burst = 4,
                                  bool can_unlock = false);

  /// Weight reader spanning the rows a quantized model's serialized image
  /// occupies from `base_row` (ceil(image_bytes / row_bytes) rows).
  static StreamSpec weight_reader_for(const dl::nn::QuantizedModel& qmodel,
                                      dl::dram::GlobalRowId base_row,
                                      std::uint32_t row_bytes,
                                      std::uint64_t requests,
                                      std::uint32_t burst = 4,
                                      bool can_unlock = false);

  static StreamSpec synthetic(dl::dram::GlobalRowId base_row,
                              std::uint64_t rows, std::uint64_t requests,
                              double locality, double write_fraction,
                              std::uint64_t seed, std::uint32_t burst = 4);

  static StreamSpec hammer(dl::rowhammer::HammerPattern pattern,
                           dl::dram::GlobalRowId victim_row,
                           std::uint64_t acts, std::uint32_t burst = 4);

  /// Integrity-scrub tenant: sweeps `rows` in `chunk_bytes` reads (one
  /// checksum group per read), privileged.  `requests` bounds the sweep —
  /// pass DramScrubber::chunks_per_pass() for exactly one full pass.
  static StreamSpec scrub(std::vector<dl::dram::GlobalRowId> rows,
                          std::uint32_t chunk_bytes, std::uint64_t requests,
                          std::uint32_t burst = 4);
};

/// Generator state of one tenant: deterministically turns a StreamSpec into
/// requests.  peek() exposes the next request without consuming it, so the
/// engine can retry injection when the target bank queue is full.
class Stream {
 public:
  Stream(const StreamSpec& spec, std::uint16_t tenant_id,
         const dl::dram::Controller& ctrl);

  [[nodiscard]] const StreamSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint16_t tenant() const { return tenant_; }

  /// Next request (seq / enqueued_at unset), or nullopt when exhausted.
  [[nodiscard]] std::optional<Request> peek();

  /// True once every request was generated and the last one consumed —
  /// exactly when peek() would return nullopt.
  [[nodiscard]] bool exhausted() const {
    return !pending_.has_value() && issued_ >= spec_.requests;
  }

  /// Consumes the peeked request.
  void pop();

 private:
  StreamSpec spec_;
  std::uint16_t tenant_;
  const dl::dram::Controller& ctrl_;
  std::uint64_t issued_ = 0;
  std::optional<Request> pending_;

  // kWeightReader cursor
  std::uint64_t cursor_ = 0;
  std::uint32_t reads_per_row_ = 1;
  // kSynthetic state
  dl::Rng rng_;
  dl::dram::GlobalRowId current_row_;
  // kHammer state
  std::vector<dl::dram::GlobalRowId> aggressors_;

  [[nodiscard]] Request generate();
  [[nodiscard]] dl::dram::PhysAddr addr_of(dl::dram::GlobalRowId row,
                                           std::uint32_t byte) const;
};

}  // namespace dl::traffic
