#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench::trace {
namespace {

constexpr std::size_t kMaxDepth = 64;
/// Raw span records kept per thread (the totals cover every span).
constexpr std::size_t kMaxRecords = std::size_t{1} << 15;

struct Record {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;
  Kind kind = Kind::kCampaign;
};

struct Frame {
  std::uint64_t start = 0;
  std::uint64_t child_ticks = 0;
  std::int32_t record = -1;
  Kind kind = Kind::kCampaign;
};

struct ThreadState;

/// Process-wide registry of thread states.  Heap-allocated and never
/// destroyed, so pool threads that exit during static destruction can
/// still retire into it.
struct Registry {
  std::mutex mu;
  std::vector<ThreadState*> live;
  std::array<Stat, kKinds> retired_spans{};
  std::array<std::uint64_t, kCounters> retired_counters{};
  std::vector<std::vector<Record>> retired_records;
  // Fan-out regions (main-thread bracketed; engines report from workers).
  std::vector<std::uint64_t> region_engines;
  std::uint64_t regions = 0;
  double imbalance_sum = 0.0;
  // Tick calibration over the enabled intervals.
  std::chrono::steady_clock::time_point wall_start;
  std::uint64_t tick_start = 0;
  double wall_ns = 0.0;
  double ticks = 0.0;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_region_open{false};
std::atomic<std::uint64_t> g_request{0};
// Tracer cost from calibrate(): ticks an empty span measures itself, and
// ticks an empty span adds to its parent (the whole open and close).
std::atomic<std::uint64_t> g_span_bias{0};
std::atomic<std::uint64_t> g_span_cost{0};

struct ThreadState {
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth = 0;
  std::array<Stat, kKinds> spans{};
  std::array<std::uint64_t, kCounters> counters{};
  std::vector<Record> records;

  ThreadState() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(this);
  }
  ~ThreadState() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (std::size_t k = 0; k < kKinds; ++k) {
      r.retired_spans[k].calls += spans[k].calls;
      r.retired_spans[k].ticks += spans[k].ticks;
      r.retired_spans[k].self_ticks += spans[k].self_ticks;
    }
    for (std::size_t c = 0; c < kCounters; ++c) {
      r.retired_counters[c] += counters[c];
    }
    if (!records.empty()) r.retired_records.push_back(std::move(records));
    std::erase(r.live, this);
  }
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  void clear() {
    spans = {};
    counters = {};
    records.clear();
  }
};

ThreadState& local() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::kCampaign: return "scenario.campaign";
    case Kind::kReport: return "scenario.report";
    case Kind::kJournal: return "scenario.journal";
    case Kind::kEngineRun: return "traffic.engine";
    case Kind::kStreamPeek: return "traffic.stream.peek";
    case Kind::kEnqueue: return "traffic.scheduler.enqueue";
    case Kind::kPick: return "traffic.scheduler.pick";
    case Kind::kController: return "dram.controller";
    case Kind::kGate: return "defense.gate";
    case Kind::kMitigation: return "defense.mitigation";
    case Kind::kDisturbance: return "rowhammer.disturbance";
    case Kind::kDefenseListener: return "defense.listener";
    case Kind::kFaults: return "faults.injector";
    case Kind::kResilience: return "resilience.retirer";
    case Kind::kScrub: return "integrity.scrub";
    case Kind::kWeightVerify: return "integrity.weight_verify";
    case Kind::kBfaStep: return "attack.bfa.step";
    case Kind::kForward: return "nn.forward";
    case Kind::kCount: break;
  }
  return "?";
}

std::uint64_t now_ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (on == g_enabled.load(std::memory_order_relaxed)) return;
  if (on) {
    r.wall_start = std::chrono::steady_clock::now();
    r.tick_start = now_ticks();
  } else {
    r.ticks += static_cast<double>(now_ticks() - r.tick_start);
    r.wall_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - r.wall_start)
            .count());
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

void set_request(std::uint64_t id) {
  g_request.store(id, std::memory_order_relaxed);
}

Scope::Scope(Kind kind) : active_(enabled()) {
  if (!active_) return;
  ThreadState& t = local();
  if (t.depth == kMaxDepth) {
    active_ = false;
    return;
  }
  Frame& f = t.stack[t.depth];
  f.kind = kind;
  f.child_ticks = 0;
  f.record = -1;
  if (t.records.size() < kMaxRecords) {
    Record rec;
    rec.kind = kind;
    rec.request = g_request.load(std::memory_order_relaxed);
    rec.parent = t.depth > 0 ? t.stack[t.depth - 1].record : -1;
    f.record = static_cast<std::int32_t>(t.records.size());
    t.records.push_back(rec);
  }
  ++t.depth;
  start_ = now_ticks();
  f.start = start_;
}

Scope::~Scope() {
  if (!active_) return;
  const std::uint64_t end = now_ticks();
  ThreadState& t = local();
  const Frame& f = t.stack[--t.depth];
  const std::uint64_t raw = end - f.start;
  const std::uint64_t bias = g_span_bias.load(std::memory_order_relaxed);
  const std::uint64_t dur = raw > bias ? raw - bias : 0;
  Stat& s = t.spans[static_cast<std::size_t>(f.kind)];
  ++s.calls;
  s.ticks += dur;
  s.self_ticks += dur > f.child_ticks ? dur - f.child_ticks : 0;
  if (t.depth > 0) {
    t.stack[t.depth - 1].child_ticks +=
        dur + g_span_cost.load(std::memory_order_relaxed);
  }
  if (f.record >= 0) {
    Record& rec = t.records[static_cast<std::size_t>(f.record)];
    rec.start = f.start;
    rec.end = end;
  }
}

std::uint64_t Scope::elapsed() const {
  return active_ ? now_ticks() - start_ : 0;
}

void calibrate() {
  constexpr std::size_t kRounds = 32;
  constexpr std::size_t kSpans = 4096;
  g_span_bias.store(0, std::memory_order_relaxed);
  g_span_cost.store(0, std::memory_order_relaxed);
  set_enabled(true);
  const ThreadState& t = local();
  const Stat& outer = t.spans[static_cast<std::size_t>(Kind::kCampaign)];
  const Stat& inner = t.spans[static_cast<std::size_t>(Kind::kForward)];
  // Host noise only adds time, so the cheapest round is the tracer's cost.
  std::uint64_t bias = ~std::uint64_t{0};
  std::uint64_t cost = ~std::uint64_t{0};
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint64_t outer0 = outer.ticks;
    const std::uint64_t inner0 = inner.ticks;
    {
      const Scope parent(Kind::kCampaign);
      for (std::size_t i = 0; i < kSpans; ++i) const Scope child(Kind::kForward);
    }
    bias = std::min(bias, (inner.ticks - inner0) / kSpans);
    cost = std::min(cost, (outer.ticks - outer0) / kSpans);
  }
  set_enabled(false);
  reset();
  g_span_bias.store(bias, std::memory_order_relaxed);
  g_span_cost.store(cost, std::memory_order_relaxed);
}

void count(Counter c, std::uint64_t n) {
  if (!enabled()) return;
  local().counters[static_cast<std::size_t>(c)] += n;
}

void fanout_begin() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.region_engines.clear();
  g_region_open.store(true, std::memory_order_relaxed);
}

void fanout_engine(std::uint64_t ticks) {
  if (!g_region_open.load(std::memory_order_relaxed)) return;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.region_engines.push_back(ticks);
}

void fanout_end() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  g_region_open.store(false, std::memory_order_relaxed);
  if (r.region_engines.size() < 2) return;
  std::uint64_t max = 0;
  double sum = 0.0;
  for (const std::uint64_t t : r.region_engines) {
    max = std::max(max, t);
    sum += static_cast<double>(t);
  }
  if (sum <= 0.0) return;
  const double mean = sum / static_cast<double>(r.region_engines.size());
  r.imbalance_sum += static_cast<double>(max) / mean;
  ++r.regions;
}

Totals collect() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  Totals out;
  out.spans = r.retired_spans;
  out.counters = r.retired_counters;
  for (const ThreadState* t : r.live) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      out.spans[k].calls += t->spans[k].calls;
      out.spans[k].ticks += t->spans[k].ticks;
      out.spans[k].self_ticks += t->spans[k].self_ticks;
    }
    for (std::size_t c = 0; c < kCounters; ++c) {
      out.counters[c] += t->counters[c];
    }
  }
  out.ns_per_tick = r.ticks > 0.0 ? r.wall_ns / r.ticks : 1.0;
  out.span_cost_ns =
      static_cast<double>(g_span_cost.load(std::memory_order_relaxed)) *
      out.ns_per_tick;
  out.fanout_regions = r.regions;
  out.imbalance_sum = r.imbalance_sum;
  return out;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (ThreadState* t : r.live) t->clear();
  r.retired_spans = {};
  r.retired_counters = {};
  r.retired_records.clear();
  r.regions = 0;
  r.imbalance_sum = 0.0;
  r.wall_ns = 0.0;
  r.ticks = 0.0;
}

bool write_spans(const std::string& path) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double ns_per_tick = r.ticks > 0.0 ? r.wall_ns / r.ticks : 1.0;
  std::uint64_t origin = ~std::uint64_t{0};
  const auto each = [&](auto&& fn) {
    std::size_t thread = 0;
    for (const ThreadState* t : r.live) fn(thread++, t->records);
    for (const auto& recs : r.retired_records) fn(thread++, recs);
  };
  each([&](std::size_t, const std::vector<Record>& recs) {
    for (const Record& rec : recs) {
      if (rec.end != 0) origin = std::min(origin, rec.start);
    }
  });
  std::fprintf(f, "thread\tkind\tstart_ns\tend_ns\tparent\trequest\n");
  each([&](std::size_t thread, const std::vector<Record>& recs) {
    for (const Record& rec : recs) {
      if (rec.end == 0) continue;  // still open when written
      std::fprintf(f, "%zu\t%s\t%.0f\t%.0f\t%d\t%llu\n", thread,
                   to_string(rec.kind),
                   static_cast<double>(rec.start - origin) * ns_per_tick,
                   static_cast<double>(rec.end - origin) * ns_per_tick,
                   rec.parent, static_cast<unsigned long long>(rec.request));
    }
  });
  return std::fclose(f) == 0;
}

#if !defined(PERFBENCH_TRACED)
void release_proxies() {}
#endif

}  // namespace perfbench::trace
