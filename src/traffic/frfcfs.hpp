// Per-bank command queues with an FR-FCFS (first-ready, first-come
// first-served) scheduler.
//
// Requests are queued per bank.  Each drain pass walks the banks in fixed
// order and services up to `batch` requests per bank.  Within a bank the
// scheduler picks the oldest request targeting the currently open row
// (a "first-ready" row hit) when one exists; otherwise the oldest request
// overall.  A fairness cap bounds how many times younger row-hit requests
// may bypass the queue head before the head is serviced unconditionally,
// so a high-locality tenant cannot starve a conflicting one.
//
// Every serviced request goes through dram::Controller::read/write/hammer,
// so access gates (DRAM-Locker), activation listeners (trackers, the
// disturbance model), and defense mitigation traffic stay on the accounted
// path; the scheduler only chooses the order.
//
// Hot-path structure (see docs/ARCHITECTURE.md "Hot path & performance
// model"): bank queues are fixed-capacity index rings (O(1) head removal,
// O(idx) mid-queue removal instead of the old O(n) vector::erase);
// addresses are decoded once at enqueue (the logical row is cached on the
// Request) and each bank keeps its queued requests' physical rows in a flat
// array parallel to the ring, re-translated once per indirection-epoch
// change, so pick() scans 8-byte rows instead of whole requests; the drain
// path is templated on the sink so per-request dispatch never goes through
// std::function.
//
// Determinism contract: scheduling is a pure function of the enqueue
// sequence and the controller's row-buffer/indirection state — fixed bank
// walk, fixed tie-breaks by arrival order, no randomness and no wall
// clock — so identical request sequences service identically on any
// machine and any DL_THREADS value.  Thread safety: none; a scheduler
// belongs to one engine on one thread (campaigns parallelize *across*
// controllers, never within one).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dram/controller.hpp"
#include "traffic/stream.hpp"

namespace dl::traffic {

struct SchedulerConfig {
  std::uint32_t queue_capacity = 64;  ///< pending requests per bank
  std::uint32_t batch = 4;            ///< serviced per bank per drain pass
  /// Consecutive row-hit bypasses of a bank's queue head before the head
  /// is serviced unconditionally (starvation bound).  0 disables reordering
  /// entirely (equivalent to FCFS for that bank).
  std::uint32_t row_hit_cap = 8;
  bool row_hit_first = true;          ///< false: plain FCFS baseline
};

/// One serviced request with its outcome, handed to the engine's sink.
struct Serviced {
  Request req;
  dl::dram::AccessResult result;
  Picoseconds completed_at = 0;
  /// Bytes a granted data read returned.  Views the scheduler's scratch
  /// buffer — valid only for the duration of the sink call; consumers that
  /// need the data later must copy it.  Empty for writes, ACT-only hammer
  /// requests, and denied accesses.
  std::span<const std::uint8_t> data;
};

class FrFcfsScheduler {
 public:
  FrFcfsScheduler(dl::dram::Controller& ctrl, const SchedulerConfig& config);

  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  /// Bank a request would queue to (under the current row indirection).
  /// Introspection only — try_enqueue decodes and caches on its own.
  [[nodiscard]] std::size_t bank_of(const Request& req) const {
    return topo_.bank_of_row(
        ctrl_.indirection().to_physical(ctrl_.mapper().row_of(req.addr)));
  }

  /// Stamps the controller clock on the request, decodes its address once
  /// (logical row cached on the request, physical row kept by the bank
  /// queue), and queues it; false when the target bank queue is full
  /// (caller retries after a drain pass; rejected_bank() names the bank).
  bool try_enqueue(Request req);

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::size_t pending_in_bank(std::size_t bank) const {
    return queues_[bank].size();
  }
  [[nodiscard]] bool bank_full(std::size_t bank) const {
    return queues_[bank].full();
  }
  /// Bank of the most recent try_enqueue that returned false.
  [[nodiscard]] std::size_t rejected_bank() const { return rejected_bank_; }

  /// One pass over all banks, servicing up to config().batch requests per
  /// bank; `sink` observes every serviced request.  Returns requests
  /// serviced.  Accepts any callable `void(const Serviced&)` — the drain
  /// path is templated so the per-request sink call is direct.
  template <typename Sink>
  std::size_t drain_pass(Sink&& sink) {
    std::size_t serviced = 0;
    for (std::size_t bank = 0; bank < queues_.size(); ++bank) {
      for (std::uint32_t n = 0; n < config_.batch && !queues_[bank].empty();
           ++n) {
        service(bank, sink);
        ++serviced;
      }
    }
    return serviced;
  }

  /// Drains until every queue is empty.
  template <typename Sink>
  void drain_all(Sink&& sink) {
    while (pending_ > 0) drain_pass(sink);
  }

 private:
  /// Fixed-capacity ring of requests in arrival order, with the physical
  /// row of each request in a flat array at the same ring positions.
  /// Removal preserves relative order: taking the i-th oldest shifts only
  /// the i older entries between it and the head (O(1) for the head
  /// itself, which is the common FCFS / fairness-cap case).
  class BankQueue {
   public:
    void init(std::uint32_t capacity) {
      slots_.resize(capacity);
      rows_.resize(capacity);
    }

    [[nodiscard]] std::uint32_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] bool full() const { return size_ == slots_.size(); }

    /// Indirection epoch of the last re-translation.  Rows pushed since
    /// were translated at enqueue under that epoch or a newer one, so they
    /// are stale only if the epoch moved, and re-translating them is
    /// harmless either way.
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

    void push_back(const Request& req, dl::dram::GlobalRowId physical_row) {
      const std::uint32_t pos = wrap(head_ + size_);
      slots_[pos] = req;
      rows_[pos] = physical_row;
      ++size_;
    }

    /// Re-derives every queued physical row from its logical row.
    void retranslate(const dl::dram::RowIndirection& indirection) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        const std::uint32_t pos = wrap(head_ + i);
        rows_[pos] = indirection.to_physical(slots_[pos].logical_row);
      }
      epoch_ = indirection.epoch();
    }

    /// Queue index of the oldest request on physical row `row`, or 0 when
    /// none is (the head).
    [[nodiscard]] std::uint32_t find_row(dl::dram::GlobalRowId row) const {
      const auto cap = static_cast<std::uint32_t>(rows_.size());
      const std::uint32_t first = std::min(size_, cap - head_);
      for (std::uint32_t i = 0; i < first; ++i) {
        if (rows_[head_ + i] == row) return i;
      }
      for (std::uint32_t i = first; i < size_; ++i) {
        if (rows_[i - first] == row) return i;
      }
      return 0;
    }

    /// Removes and returns the i-th oldest request.
    Request take(std::uint32_t i) {
      std::uint32_t pos = wrap(head_ + i);
      Request out = slots_[pos];
      for (; i > 0; --i) {
        const std::uint32_t prev = wrap(head_ + i - 1);
        slots_[pos] = slots_[prev];
        rows_[pos] = rows_[prev];
        pos = prev;
      }
      head_ = wrap(head_ + 1);
      --size_;
      return out;
    }

   private:
    [[nodiscard]] std::uint32_t wrap(std::uint32_t pos) const {
      const auto cap = static_cast<std::uint32_t>(slots_.size());
      return pos >= cap ? pos - cap : pos;  // pos < 2*cap always holds
    }

    std::vector<Request> slots_;
    std::vector<dl::dram::GlobalRowId> rows_;  ///< physical row per slot
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::uint64_t epoch_ = 0;
  };

  dl::dram::Controller& ctrl_;
  /// Bank/row-buffer topology view, cached at construction (valid for the
  /// controller's lifetime; reads live open-row state).
  dl::dram::Topology topo_;
  SchedulerConfig config_;
  std::vector<BankQueue> queues_;                ///< per bank, arrival order
  std::vector<std::uint32_t> head_bypasses_;     ///< per bank fairness state
  std::size_t pending_ = 0;
  std::size_t rejected_bank_ = 0;
  std::vector<std::uint8_t> read_scratch_;       ///< grow-only read buffer
  std::vector<std::uint8_t> write_scratch_;      ///< 0xA5-filled, grow-only

  /// Index into the bank queue of the request to service next; first
  /// re-translates the bank's physical rows if the indirection epoch moved.
  [[nodiscard]] std::size_t pick(std::size_t bank);

  template <typename Sink>
  void service(std::size_t bank, Sink&& sink) {
    const auto idx = static_cast<std::uint32_t>(pick(bank));
    head_bypasses_[bank] = idx == 0 ? 0 : head_bypasses_[bank] + 1;
    const Request req = queues_[bank].take(idx);
    --pending_;

    Serviced s;
    s.req = req;
    if (req.bytes == 0) {
      s.result = ctrl_.hammer(req.addr, req.can_unlock);
    } else if (req.is_write) {
      // Deterministic filler payload; benign tenants write within their own
      // row range, so the pattern's value is irrelevant to the experiments.
      // The buffer holds 0xA5 permanently — only growth writes new bytes.
      if (write_scratch_.size() < req.bytes) {
        write_scratch_.resize(req.bytes, 0xA5);
      }
      s.result = ctrl_.write(req.addr,
                             std::span<const std::uint8_t>(
                                 write_scratch_.data(), req.bytes),
                             req.can_unlock);
    } else {
      if (read_scratch_.size() < req.bytes) read_scratch_.resize(req.bytes);
      s.result = ctrl_.read(
          req.addr, std::span<std::uint8_t>(read_scratch_.data(), req.bytes),
          req.can_unlock);
      if (s.result.granted) {
        s.data = std::span<const std::uint8_t>(read_scratch_.data(),
                                               req.bytes);
      }
    }
    s.completed_at = ctrl_.now();
    sink(s);
  }
};

}  // namespace dl::traffic
