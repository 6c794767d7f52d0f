// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "traffic/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "common/error.hpp"

namespace dl::traffic {

double TenantStats::row_hit_rate() const {
  return granted > 0 ? static_cast<double>(row_hits) /
                           static_cast<double>(granted)
                     : 0.0;
}

namespace {

/// Index of the nearest-rank q-percentile in a sorted set of n > 0
/// samples: the smallest sample >= q of the distribution.  (A floored
/// index would report the *minimum* as p99 of two samples.)
std::size_t rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto idx = rank < 1.0 ? std::size_t{0}
                              : static_cast<std::size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

Picoseconds rank_quantile(const std::vector<Picoseconds>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[rank_index(sorted.size(), q)];
}

}  // namespace

Picoseconds TenantStats::latency_quantile(double q) const {
  std::vector<Picoseconds> sorted = queue_latency;
  std::sort(sorted.begin(), sorted.end());
  return rank_quantile(sorted, q);
}

void TenantStats::merge(const TenantStats& other) {
  issued += other.issued;
  granted += other.granted;
  denied += other.denied;
  rejected_enqueues += other.rejected_enqueues;
  reads += other.reads;
  writes += other.writes;
  hammer_acts += other.hammer_acts;
  row_hits += other.row_hits;
  data_bytes += other.data_bytes;
  service_time += other.service_time;
  queue_latency.insert(queue_latency.end(), other.queue_latency.begin(),
                       other.queue_latency.end());
  admission = admission || other.admission;
  retried += other.retried;
  shed += other.shed;
  failed += other.failed;
  deadline_misses += other.deadline_misses;
}

TrafficEngine::TrafficEngine(dl::dram::Controller& ctrl,
                             std::vector<StreamSpec> tenants,
                             const SchedulerConfig& scheduler,
                             const AdmissionSpec& admission)
    : ctrl_(ctrl), scheduler_(ctrl, scheduler), admission_(admission) {
  DL_REQUIRE(!tenants.empty(), "traffic engine needs at least one tenant");
  DL_REQUIRE(tenants.size() <= 0xFFFF, "too many tenants");
  streams_.reserve(tenants.size());
  stats_.resize(tenants.size());
  retry_count_.resize(tenants.size(), 0);
  deadline_.resize(tenants.size(), 0);
  slo_p99_.resize(tenants.size(), 0);
  p99_.resize(tenants.size());
  park_.resize(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name.empty()) {
      // Built with append rather than operator+ chains: GCC 12's -Wrestrict
      // fires a false positive (PR 105651) on `"lit" + std::string&&`.
      std::string name = "t";
      name += std::to_string(i);
      name += '/';
      name += to_string(tenants[i].kind);
      tenants[i].name = std::move(name);
    }
    streams_.emplace_back(tenants[i], static_cast<std::uint16_t>(i), ctrl_);
    stats_[i].name = tenants[i].name;
    stats_[i].kind = tenants[i].kind;
    stats_[i].admission = admission_.enabled;
    deadline_[i] = tenants[i].deadline;
    slo_p99_[i] = tenants[i].slo_p99;
    // Every declared request is eventually serviced and records one
    // latency sample; reserving up front keeps the drain loop (and the
    // SLO tracker fed from it) free of reallocation growth.
    const auto samples = static_cast<std::size_t>(tenants[i].requests);
    stats_[i].queue_latency.reserve(samples);
    if (admission_.enabled && slo_p99_[i] > 0) p99_[i].reserve(samples);
  }
}

void TrafficEngine::record(const Serviced& s) {
  TenantStats& t = stats_[s.req.tenant];
  if (s.result.granted) {
    ++t.granted;
    if (s.req.bytes == 0) {
      ++t.hammer_acts;
    } else if (s.req.is_write) {
      ++t.writes;
      t.data_bytes += s.req.bytes;
    } else {
      ++t.reads;
      t.data_bytes += s.req.bytes;
    }
    if (s.result.row_hit) ++t.row_hits;
  } else {
    ++t.denied;
  }
  t.service_time += s.result.latency;
  t.queue_latency.push_back(s.completed_at - s.req.enqueued_at);
  if (admission_.enabled && deadline_[s.req.tenant] > 0 &&
      s.completed_at - s.req.enqueued_at > deadline_[s.req.tenant]) {
    ++t.deadline_misses;
  }
  ++serviced_;
  if (data_sink_ && !s.data.empty()) data_sink_(s);
}

void P99Tracker::add(Picoseconds sample) {
  if (!low_.empty() && sample > low_.front()) {
    high_.push_back(sample);
    std::push_heap(high_.begin(), high_.end(), std::greater<>());
  } else {
    low_.push_back(sample);
    std::push_heap(low_.begin(), low_.end());
  }
  // Every low_ sample is <= every high_ sample; rebalance so low_ holds
  // exactly the rank-many smallest (the rank moves by at most one per add).
  const std::size_t rank = rank_index(size(), 0.99) + 1;
  if (low_.size() > rank) {
    std::pop_heap(low_.begin(), low_.end());
    high_.push_back(low_.back());
    low_.pop_back();
    std::push_heap(high_.begin(), high_.end(), std::greater<>());
  } else if (low_.size() < rank) {
    std::pop_heap(high_.begin(), high_.end(), std::greater<>());
    low_.push_back(high_.back());
    high_.pop_back();
    std::push_heap(low_.begin(), low_.end());
  }
}

bool TrafficEngine::should_shed(std::size_t i) {
  if (!admission_.enabled || slo_p99_[i] == 0) return false;
  const std::vector<Picoseconds>& samples = stats_[i].queue_latency;
  if (samples.size() < admission_.min_latency_samples) return false;
  P99Tracker& p99 = p99_[i];
  if (samples.size() - p99.size() >= kP99Stride || p99.size() == 0) {
    for (std::size_t k = p99.size(); k < samples.size(); ++k) {
      p99.add(samples[k]);
    }
  }
  return p99.value() > slo_p99_[i];
}

bool TrafficEngine::parked(std::size_t i) const {
  const Park& park = park_[i];
  return park.active && park.epoch == ctrl_.indirection().epoch() &&
         scheduler_.bank_full(park.bank);
}

void TrafficEngine::pop_head(std::size_t i) {
  retry_count_[i] = 0;
  park_[i].active = false;
  streams_[i].pop();
}

TrafficReport TrafficEngine::run() {
  const Picoseconds start = ctrl_.now();
  const auto sink = [this](const Serviced& s) { record(s); };
  bool work = true;
  while (work) {
    work = false;
    // Injection phase: fixed tenant order; a full bank queue stalls that
    // tenant for the rest of the round (head-of-line, like a real per-core
    // request buffer).  Without admission control the request is never
    // dropped; with it, shedding and retry budgets pop requests under
    // explicit accounting so nothing is ever lost silently
    // (spec.requests == issued + shed + failed).
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      Stream& stream = streams_[i];
      for (std::uint32_t b = 0; b < stream.spec().burst; ++b) {
        if (stream.exhausted()) break;
        // A parked head request skips peek and try_enqueue (it would be
        // rejected on the same full bank); everything else — the shed
        // check first, then the rejection's accounting — runs as usual.
        const bool stalled = parked(i);
        std::optional<Request> req;
        if (!stalled) req = stream.peek();
        if (should_shed(i)) {
          // SLO breach: shed at admission instead of deepening the queue.
          ++stats_[i].shed;
          pop_head(i);
          work = true;
          continue;
        }
        if (stalled) {
          ctrl_.counters().add(dl::dram::Counter::kRejectedEnqueues);
        } else {
          req->seq = next_seq_;
          if (scheduler_.try_enqueue(*req)) {
            ++next_seq_;
            ++stats_[i].issued;
            pop_head(i);
            work = true;
            continue;
          }
          park_[i] = {true, scheduler_.rejected_bank(),
                      ctrl_.indirection().epoch()};
        }
        ++stats_[i].rejected_enqueues;
        if (!admission_.enabled) break;
        if (++retry_count_[i] > admission_.retry_budget) {
          // Retry budget exhausted: fail the request explicitly.
          ++stats_[i].failed;
          pop_head(i);
          work = true;
          continue;
        }
        ++stats_[i].retried;
        if (admission_.retry_backoff > 0) {
          ctrl_.advance_time(admission_.retry_backoff);
        }
        break;  // back-pressure: stall the tenant for this round
      }
    }
    if (scheduler_.drain_pass(sink) > 0) work = true;
  }
  scheduler_.drain_all(sink);

  TrafficReport report;
  report.tenants = stats_;
  report.serviced = serviced_;
  report.elapsed = ctrl_.now() - start;
  return report;
}

// ------------------------------------------------------------------ reports

dl::json::Value to_json(const TenantStats& t, Picoseconds elapsed) {
  auto v = dl::json::Value::object();
  v["name"] = t.name;
  v["kind"] = to_string(t.kind);
  v["issued"] = t.issued;
  v["granted"] = t.granted;
  v["denied"] = t.denied;
  v["rejected_enqueues"] = t.rejected_enqueues;
  v["reads"] = t.reads;
  v["writes"] = t.writes;
  v["hammer_acts"] = t.hammer_acts;
  v["row_hits"] = t.row_hits;
  v["row_hit_rate"] = t.row_hit_rate();
  v["data_bytes"] = t.data_bytes;
  v["service_time_ps"] = t.service_time;
  std::vector<Picoseconds> sorted = t.queue_latency;
  std::sort(sorted.begin(), sorted.end());
  auto lat = dl::json::Value::object();
  lat["p50_ns"] = to_nanoseconds(rank_quantile(sorted, 0.50));
  lat["p95_ns"] = to_nanoseconds(rank_quantile(sorted, 0.95));
  lat["p99_ns"] = to_nanoseconds(rank_quantile(sorted, 0.99));
  v["queue_latency"] = std::move(lat);
  if (t.kind == StreamKind::kHammer) {
    const double secs = to_seconds(elapsed);
    v["acts_per_sec"] =
        secs > 0.0 ? static_cast<double>(t.hammer_acts) / secs : 0.0;
  }
  if (t.kind == StreamKind::kScrub) {
    const double secs = to_seconds(elapsed);
    v["scrub_bandwidth_bytes_per_sec"] =
        secs > 0.0 ? static_cast<double>(t.data_bytes) / secs : 0.0;
  }
  if (t.admission) {
    // Emitted only for admission-controlled runs so reports without the
    // feature stay byte-identical to earlier releases.
    auto a = dl::json::Value::object();
    a["retried"] = t.retried;
    a["shed"] = t.shed;
    a["failed"] = t.failed;
    a["deadline_misses"] = t.deadline_misses;
    v["admission"] = std::move(a);
  }
  return v;
}

dl::json::Value to_json(const TrafficReport& report) {
  auto v = dl::json::Value::object();
  v["serviced"] = report.serviced;
  v["elapsed_ps"] = report.elapsed;
  auto tenants = dl::json::Value::array();
  for (const TenantStats& t : report.tenants) {
    tenants.push_back(to_json(t, report.elapsed));
  }
  v["tenants"] = std::move(tenants);
  return v;
}

}  // namespace dl::traffic
