// Benchmark driver: runs one workload from its seed as a closed batch and
// prints its metrics, then a one-line JSON result (the last line of
// stdout).  perfbench/run.py builds this program and invokes it; see
// README.md.
//
//   perfbench        --workload NAME --seed N --seconds S
//                    [--expect CRC32HEX] [--out DIR]
//   perfbench_traced (same flags; per-layer metrics)
//
// Set-up generates the specs from the seed.  A set-up time is the mean of
// a batch of set-ups; one is taken at the start and, untraced, one ahead
// of every timed pass, and setup_s is their median.  bfa-victim's set-up
// also trains its victim, which takes seconds; it is done once and
// setup_s is that one set-up.  Then one untimed warm-up pass runs at the
// other thread count (1 vs up to kMaxThreads), so the timed passes'
// digests double as the determinism check.
//
// Untraced: passes run back to back for about S seconds at DL_THREADS (no
// pass starts that would, at the mean pass length so far, end after S).
// Each campaign call is timed on its own; a pass's rate is its ops over
// its summed call times (reporting, digests and checks are excluded), and
// ops_per_s is the median pass rate.  Every pass does the same work (the
// digest checks that), so passes differ only by how the host interfered.
// On a shared VM the host's speed drifts in stretches of seconds, up and
// down; the median sits in the state the host spends most time in, where
// the fastest pass depends on whether a run caught a short fast stretch.
//
// Traced: S/2 seconds of passes with recording off (CPU utilisation and
// the baseline rate), then S/2 seconds with it on.  Only these passes
// journal their results.
//
// Every pass is checked: the CRC32 of its report must equal the digest
// recorded for the seed (--expect) or, without one, the warm-up pass's,
// and the workload's invariants must hold.  A miss fails every campaign
// of that pass and makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "scenario/journal.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Pass;
using perfbench::trace::Counter;
using perfbench::trace::Kind;

/// A set-up time is the mean over set-ups repeated for at least this
/// long, so that jitter of a microsecond does not swamp a set-up of a few.
constexpr double kSetupBatchSeconds = 0.004;
constexpr std::size_t kMinPasses = 3;
/// Thread count of the determinism check when the run uses one thread.
constexpr std::size_t kMaxThreads = 4;

#if defined(PERFBENCH_TRACED)
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::optional<std::uint32_t> expect;
  std::string out = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--expect CRC32HEX] [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (std::strcmp(flag, "--expect") == 0) {
      a.expect = static_cast<std::uint32_t>(std::strtoul(v, &end, 16));
      if (*end != '\0') usage("bad --expect");
    } else if (std::strcmp(flag, "--out") == 0) {
      a.out = v;
    } else {
      usage("unknown flag");
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown --workload");
  }
  return a;
}

/// Correctness bookkeeping over every pass of the run.
struct Tally {
  std::optional<std::uint32_t> reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(const Pass& p, const char* phase) {
    attempted += p.campaigns;
    std::size_t bad = p.bad_campaigns;
    for (const std::string& s : p.problems) note(phase, s);
    if (!reference) {
      reference = p.report_crc;
    } else if (p.report_crc != *reference) {
      bad = p.campaigns;
      char buf[80];
      std::snprintf(buf, sizeof buf, "report crc32 %08x != expected %08x",
                    p.report_crc, *reference);
      note(phase, buf);
    }
    failed += bad;
  }
  void note(const char* phase, const std::string& s) {
    if (problems.size() < 16) problems.push_back(std::string(phase) + ": " + s);
  }
};

/// Time of one set-up: spec generation from the seed (and, on bfa-victim,
/// victim training), averaged over set-ups repeated for at least
/// kSetupBatchSeconds.  Starting the pool is left out: waking its threads
/// took anywhere from 30 to 150 us on a shared VM, ten times the spec
/// generation it would drown.  The last workload made is left in `out`.
double time_setup(const Args& a, std::unique_ptr<perfbench::Workload>& out) {
  double spent = 0.0;
  std::size_t made = 0;
  do {
    out.reset();
    const Clock::time_point t0 = Clock::now();
    out = perfbench::make_workload(a.workload, a.seed);
    spent += seconds_since(t0);
    ++made;
  } while (spent < kSetupBatchSeconds);
  return spent / static_cast<double>(made);
}

/// Re-creates the pool with `n` threads and starts its workers.
void warm_pool(std::size_t n) {
  dl::parallel::set_threads(n);
  dl::parallel::parallel_for(0, n, 1,
                             [](std::size_t, std::size_t, std::size_t) {});
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Passes {
  std::size_t passes = 0;
  std::uint64_t ops = 0;
  std::uint64_t campaigns = 0;
  std::uint64_t retired_rows = 0;
  double wall = 0.0;
  double cpu = 0.0;  ///< process CPU seconds over the passes
  double call_seconds = 0.0;  ///< host wall time inside campaign calls
  std::vector<double> rates;  ///< ops per call second of each pass
  bool digests_match = true;  ///< every pass gave the reference digest

  /// Ops per host second spent in campaign calls, over the whole run.
  [[nodiscard]] double mean_rate() const {
    return ratio(static_cast<double>(ops), call_seconds);
  }
  [[nodiscard]] double median_rate() const { return median(rates); }
};

/// Runs passes for about `seconds` (at least kMinPasses), calling
/// `before_pass` (if set) ahead of each.  With a non-empty `journal_path`
/// every pass journals into a fresh file there, so the file holds one pass,
/// not the whole run.
Passes run_passes(perfbench::Workload& w, const std::string& journal_path,
                  double seconds, Tally& tally, const char* phase,
                  const std::function<void()>& before_pass = {}) {
  Passes out;
  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  // Stops before a pass that would, at the mean pass length, end late.
  const auto more = [&] {
    const double spent = seconds_since(start);
    return out.passes < kMinPasses ||
           spent * static_cast<double>(out.passes + 1) /
                   static_cast<double>(out.passes) <=
               seconds;
  };
  while (more()) {
    if (before_pass) before_pass();
    std::unique_ptr<dl::scenario::CampaignJournal> journal;
    if (!journal_path.empty()) {
      std::filesystem::remove(journal_path);
      journal = std::make_unique<dl::scenario::CampaignJournal>(journal_path);
    }
    const Pass p = w.run_pass(journal.get());
    out.call_seconds += p.call_seconds;
    out.rates.push_back(ratio(static_cast<double>(p.ops), p.call_seconds));
    ++out.passes;
    out.ops += p.ops;
    out.campaigns += p.campaigns;
    out.retired_rows += p.retired_rows;
    tally.add(p, phase);
    out.digests_match = out.digests_match && p.report_crc == *tally.reference;
  }
  out.wall = seconds_since(start);
  out.cpu = cpu_seconds() - cpu0;
  return out;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// Per-layer metrics from the traced phase's span totals.  Times are host
/// wall time; "per op" divides by the simulated ops of the traced passes.
std::vector<Metric> per_layer(const perfbench::trace::Totals& t,
                              const Passes& traced, const Passes& untraced,
                              std::size_t threads) {
  const double ops = static_cast<double>(traced.ops);
  const double acts = static_cast<double>(t[Kind::kDisturbance].calls);
  const auto calls = [&](Kind k) { return static_cast<double>(t[k].calls); };
  const auto per_call = [&](Kind k) { return ratio(t.ns(k), calls(k)); };
  const auto count = [&](Counter c) { return static_cast<double>(t.count(c)); };
  const double scrub_bytes = count(Counter::kScrubBytes);
  return {
      {"traffic.engine.ns_per_op", "ns/op", ratio(t.ns(Kind::kEngineRun), ops)},
      // drain_pass is inlined into TrafficEngine::run, so the scheduler's
      // drain loop shares its self time with the engine's own loop.
      {"traffic.engine-drain.self_ns_per_op", "ns/op",
       ratio(t.self_ns(Kind::kEngineRun), ops)},
      {"traffic.stream.peek_ns", "ns", per_call(Kind::kStreamPeek)},
      {"traffic.stream.peeks_per_op", "1/op",
       ratio(calls(Kind::kStreamPeek), ops)},
      {"traffic.scheduler.enqueue_ns", "ns", per_call(Kind::kEnqueue)},
      {"traffic.scheduler.enqueue_attempts_per_op", "1/op",
       ratio(calls(Kind::kEnqueue), ops)},
      {"traffic.scheduler.enqueue_reject_frac", "ratio",
       ratio(count(Counter::kEnqueueRejects), calls(Kind::kEnqueue))},
      {"traffic.scheduler.pick_ns", "ns", per_call(Kind::kPick)},
      {"dram.controller.self_ns_per_op", "ns/op",
       ratio(t.self_ns(Kind::kController), ops)},
      {"dram.controller.row_hit_frac", "ratio",
       ratio(count(Counter::kRowHits), count(Counter::kGranted))},
      {"dram.acts_per_op", "1/op", ratio(acts, ops)},
      {"defense.gate_ns_per_op", "ns/op", ratio(t.ns(Kind::kGate), ops)},
      {"defense.gate_deny_frac", "ratio",
       ratio(count(Counter::kGateDenies), calls(Kind::kGate))},
      {"defense.listener_ns_per_act", "ns/act",
       ratio(t.ns(Kind::kDefenseListener), acts)},
      {"defense.mitigations_per_kact", "1/kact",
       ratio(1000.0 * calls(Kind::kMitigation), acts)},
      {"rowhammer.disturbance.ns_per_act", "ns/act",
       ratio(t.ns(Kind::kDisturbance), acts)},
      {"integrity.scrub_ns_per_kib", "ns/KiB",
       ratio(t.ns(Kind::kScrub), scrub_bytes / 1024.0)},
      {"integrity.scrub_bytes_per_op", "B/op", ratio(scrub_bytes, ops)},
      {"integrity.weight_verify_ms", "ms",
       per_call(Kind::kWeightVerify) * 1e-6},
      {"faults.ns_per_act", "ns/act", ratio(t.ns(Kind::kFaults), acts)},
      {"resilience.ns_per_act", "ns/act",
       ratio(t.ns(Kind::kResilience), acts)},
      {"resilience.retired_rows", "count",
       ratio(static_cast<double>(traced.retired_rows),
             static_cast<double>(traced.campaigns))},
      {"scenario.fanout.cpu_util", "ratio",
       ratio(untraced.cpu, untraced.wall * static_cast<double>(threads))},
      {"scenario.fanout.channel_imbalance", "ratio",
       ratio(t.imbalance_sum, static_cast<double>(t.fanout_regions))},
      {"scenario.report_ns_per_campaign", "ns",
       ratio(t.ns(Kind::kReport), static_cast<double>(traced.campaigns))},
      {"scenario.journal_ns_per_campaign", "ns",
       ratio(t.ns(Kind::kJournal), static_cast<double>(traced.campaigns))},
      {"attack.bfa.step_ms", "ms", per_call(Kind::kBfaStep) * 1e-6},
      {"nn.forward_share", "ratio",
       ratio(t.ns(Kind::kForward), t.ns(Kind::kBfaStep))},
      {"trace.overhead_frac", "ratio",
       ratio(untraced.median_rate(), traced.median_rate()) - 1.0},
      // Already subtracted from every span time above.
      {"trace.span_cost_ns", "ns", t.span_cost_ns},
  };
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::size_t threads = dl::parallel::max_threads();
  const bool bfa = perfbench::is_bfa(args.workload);
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t alt_threads =
      threads > 1 ? 1 : std::min(kMaxThreads, hardware);

  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + args.workload;
  // Only the traced run journals (scenario.journal_ns_per_campaign); the
  // untraced run's passes write no journal.
  const std::string journal_path = stem + ".journal.jsonl";
  std::filesystem::remove(journal_path);

  Tally tally;
  tally.reference = args.expect;

  std::unique_ptr<perfbench::Workload> workload;
  std::vector<double> setups = {time_setup(args, workload)};
  // Warm-up at the other thread count: its digest is the reference of the
  // timed passes when none is recorded, so they check determinism too.
  warm_pool(alt_threads);
  const Pass warm = workload->run_pass(nullptr);
  tally.add(warm, "warm-up");
  warm_pool(threads);

  std::printf("workload %s seed %llu threads %zu (closed batch)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), threads);
  std::vector<Metric> metrics;
  if (!kTraced) {
    // More set-ups, one ahead of every timed pass, so that they sample the
    // whole run rather than the host's state at its start.  Not on
    // bfa-victim, whose set-up trains for seconds.
    const Passes timed =
        run_passes(*workload, "", args.seconds, tally, "timed", [&] {
          if (bfa) return;
          std::unique_ptr<perfbench::Workload> spare;
          setups.push_back(time_setup(args, spare));
        });
    std::printf("determinism %zu vs %zu threads: %s\n", alt_threads,
                threads,
                timed.digests_match && warm.report_crc == *tally.reference
                    ? "identical"
                    : "DIFFERENT");
    metrics = {
        {"setup_s", "s", median(setups)},
        {"ops_per_s", "1/s", timed.median_rate()},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
    std::printf("passes %zu, %llu campaigns, %llu ops in %.3f s\n",
                timed.passes,
                static_cast<unsigned long long>(timed.campaigns),
                static_cast<unsigned long long>(timed.ops), timed.wall);
    std::printf("%s %.6g 1/s (median pass; fastest %.6g, mean over the "
                "run %.6g)\n",
                bfa ? "bfa_iters_per_s" : "sim_ops_per_s", metrics[1].value,
                *std::max_element(timed.rates.begin(), timed.rates.end()),
                timed.mean_rate());
    std::printf("set-ups %zu: median %.6g s, fastest %.6g s\n",
                setups.size(), metrics[0].value,
                *std::min_element(setups.begin(), setups.end()));
  } else {
    const double half = args.seconds / 2.0;
    const Passes plain =
        run_passes(*workload, journal_path, half, tally, "plain");
    perfbench::trace::calibrate();
    perfbench::trace::set_enabled(true);
    const Passes traced =
        run_passes(*workload, journal_path, half, tally, "traced");
    perfbench::trace::set_enabled(false);
    metrics = per_layer(perfbench::trace::collect(), traced, plain, threads);
    // Same work, same results: the simulated counts of every traced pass
    // matched the untraced digest (checked by the tally), and ops agree.
    const bool same_ops =
        plain.ops * traced.passes == traced.ops * plain.passes;
    if (!same_ops) tally.note("traced", "ops differ from the untraced passes");
    if (!same_ops) ++tally.failed;
    std::printf("traced passes %zu (%llu ops), untraced passes %zu "
                "(%llu ops): simulated counts %s\n",
                traced.passes, static_cast<unsigned long long>(traced.ops),
                plain.passes, static_cast<unsigned long long>(plain.ops),
                same_ops && tally.failed == 0 ? "identical" : "DIFFER");
    if (!perfbench::trace::write_spans(stem + ".spans.tsv")) {
      std::printf("warning: could not write %s.spans.tsv\n", stem.c_str());
    }
  }
  if (tally.reference) {
    std::printf("report_crc32 %08x%s\n", *tally.reference,
                args.expect ? " (recorded for this seed)" : "");
  }
  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name, m.value, m.unit);
  }
  std::printf("failed_frac %.6g ratio\n",
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)));
  for (const std::string& p : tally.problems) std::printf("FAIL %s\n", p.c_str());
  print_result(tally, metrics);
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}
