// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "traffic/frfcfs.hpp"

#include "common/error.hpp"

namespace dl::traffic {

using dl::dram::Controller;
using dl::dram::GlobalRowId;

FrFcfsScheduler::FrFcfsScheduler(Controller& ctrl,
                                 const SchedulerConfig& config)
    : ctrl_(ctrl),
      topo_(ctrl.topology()),
      config_(config),
      queues_(topo_.bank_count()),
      head_bypasses_(topo_.bank_count(), 0) {
  DL_REQUIRE(config_.queue_capacity > 0, "queue capacity must be positive");
  DL_REQUIRE(config_.batch > 0, "batch must be positive");
  for (auto& q : queues_) q.init(config_.queue_capacity);
}

bool FrFcfsScheduler::try_enqueue(Request req) {
  req.logical_row = ctrl_.mapper().row_of(req.addr);
  const GlobalRowId physical = ctrl_.indirection().to_physical(req.logical_row);
  const std::size_t bank = topo_.bank_of_row(physical);
  BankQueue& q = queues_[bank];
  if (q.full()) {
    rejected_bank_ = bank;
    ctrl_.counters().add(dl::dram::Counter::kRejectedEnqueues);
    return false;
  }
  req.enqueued_at = ctrl_.now();
  q.push_back(req, physical);
  ++pending_;
  return true;
}

std::size_t FrFcfsScheduler::pick(std::size_t bank) {
  BankQueue& q = queues_[bank];
  if (!config_.row_hit_first || config_.row_hit_cap == 0 ||
      head_bypasses_[bank] >= config_.row_hit_cap) {
    return 0;  // FCFS / fairness cap reached: queue head
  }
  const GlobalRowId open = topo_.open_row(bank);
  if (open == dl::dram::Topology::kNoRow) return 0;
  // Row-hit test under the *current* indirection: a swap defense may have
  // migrated rows since enqueue, so the bank's rows are re-translated once
  // per epoch change (the logical row never changes — the address map is
  // immutable).
  const dl::dram::RowIndirection& indirection = ctrl_.indirection();
  if (q.epoch() != indirection.epoch()) q.retranslate(indirection);
  return q.find_row(open);
}

}  // namespace dl::traffic
