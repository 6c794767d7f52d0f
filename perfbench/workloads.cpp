#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "nn/data.hpp"
#include "nn/models.hpp"
#include "nn/quant.hpp"
#include "nn/train.hpp"
#include "scenario/scenario.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace sc = dl::scenario;
using dl::substream_seed;
using dl::dram::GlobalRowId;
using trace::Kind;
using trace::Scope;

constexpr std::size_t kMaxProblems = 8;

void problem(Pass& pass, std::string msg) {
  ++pass.bad_campaigns;
  if (pass.problems.size() < kMaxProblems) {
    pass.problems.push_back(std::move(msg));
  }
}

/// Runs one campaign call inside a campaign span and adds its host wall
/// time to the pass.
template <typename Call>
auto timed_call(Pass& pass, Call&& call) {
  const Scope span(Kind::kCampaign);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = call();
  pass.call_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

/// What a campaign driver does with a finished batch: one report (whose
/// CRC32 is the pass digest) and one journal line per campaign.
void finish(Pass& pass, sc::CampaignJournal* journal,
            const std::vector<sc::HammerCampaignResult>& hammer,
            const std::vector<sc::BfaCampaignResult>& bfa,
            const std::vector<sc::ServeCampaignResult>& serve) {
  {
    const Scope span(Kind::kReport);
    pass.report_crc = dl::crc32(sc::report_json(hammer, bfa, serve).dump());
  }
  if (journal == nullptr) return;
  const Scope span(Kind::kJournal);
  for (const auto& r : hammer) journal->record(r);
  for (const auto& r : bfa) journal->record(r);
  for (const auto& r : serve) journal->record(r);
}

/// One DRAM channel: 2 banks x 4 subarrays x 256 rows of 4 KiB.
dl::dram::Geometry channel_geometry() {
  dl::dram::Geometry g;
  g.channels = 1;
  g.ranks = 1;
  g.banks = 2;
  g.subarrays_per_bank = 4;
  g.rows_per_subarray = 256;
  g.row_bytes = 4096;
  return g;
}

// ------------------------------------------------------------ serve batches

using ServeCheck = std::string (*)(const sc::ServeCampaignResult&);

class ServeBatch final : public Workload {
 public:
  ServeBatch(std::vector<sc::ServeCampaign> specs, ServeCheck check)
      : specs_(std::move(specs)), check_(check) {}

  Pass run_pass(sc::CampaignJournal* journal) override {
    Pass pass;
    std::vector<sc::ServeCampaignResult> results;
    results.reserve(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      trace::set_request(i);
      results.push_back(
          timed_call(pass, [&] { return sc::run_serve_isolated(specs_[i]); }));
      trace::release_proxies();
      const sc::ServeCampaignResult& r = results.back();
      ++pass.campaigns;
      pass.ops += r.merged.serviced;
      pass.retired_rows += r.resilience.retired_rows;
      if (r.status != sc::CampaignStatus::kOk) {
        problem(pass, r.name + ": " + sc::to_string(r.status) + " " + r.error);
      } else if (std::string why = check_(r); !why.empty()) {
        problem(pass, r.name + ": " + why);
      }
    }
    finish(pass, journal, {}, {}, results);
    return pass;
  }

 private:
  std::vector<sc::ServeCampaign> specs_;
  ServeCheck check_;
};

// serve-locker: DRAM-Locker guards a weight image on a timed 4-channel
// round-robin fabric shared by two weight readers, a web filler and a
// double-sided attacker whose aggressor rows are locked.
constexpr std::size_t kServeCampaigns = 4;
constexpr std::uint64_t kServeRounds = 8;
constexpr std::uint64_t kServeReaderRequests = 6000;
constexpr std::uint64_t kServeWebRequests = 6000;
constexpr std::uint64_t kServeAttackRequests = 8000;

sc::ServeCampaign serve_locker_campaign(std::uint64_t seed, std::size_t i) {
  dl::Rng rng(substream_seed(seed, 100, i));
  sc::ServeCampaign c;
  c.name = "serve-locker/" + std::to_string(i);
  c.env.geometry = channel_geometry();
  c.env.timing_spec = {.enabled = true, .scheduled_refresh = true};
  c.env.disturbance.t_rh = 1000;
  c.env.disturbance_seed = substream_seed(seed, 0, i);
  c.env.fabric.channels = 4;
  c.env.fabric.interleave = dl::dram::InterleavePolicy::kRowRoundRobin;
  dl::defense::DramLockerConfig locker;
  locker.protect_radius = 1;
  c.defense = sc::DefenseSpec::dram_locker(locker, substream_seed(seed, 1, i));

  // The image: 16 fabric rows = 4 adjacent local rows on every channel,
  // inside the first subarray and clear of its reserved band.  Adjacent
  // protected rows lock each other, so the privileged reader unlocks them
  // by SWAP.  The attacker's victim is a protected row of its own whose
  // locked neighbours no privileged tenant ever unlocks.
  const GlobalRowId image = 4 * (16 + rng.next_below(16));
  for (GlobalRowId r = image; r < image + 16; ++r) c.protected_rows.push_back(r);
  const GlobalRowId victim = 4 * (96 + rng.next_below(16)) + rng.next_below(4);
  c.protected_rows.push_back(victim);

  auto locked = dl::traffic::StreamSpec::weight_reader(
      image, 16, kServeReaderRequests, /*burst=*/4, /*can_unlock=*/true);
  locked.name = "weights-locked";
  auto open = dl::traffic::StreamSpec::weight_reader(
      4 * (128 + rng.next_below(32)), 64, kServeReaderRequests);
  open.name = "weights-open";
  auto web = dl::traffic::StreamSpec::synthetic(
      1200, 2048, kServeWebRequests, /*locality=*/0.4,
      /*write_fraction=*/0.2, substream_seed(seed, 4, i));
  web.name = "web";
  auto attacker = dl::traffic::StreamSpec::hammer(
      dl::rowhammer::HammerPattern::kDoubleSided, victim,
      kServeAttackRequests);
  attacker.name = "hammer";
  c.traffic.tenants = {locked, open, web, attacker};
  c.traffic.scheduler.batch = 2;
  c.rounds = kServeRounds;
  return c;
}

std::string check_serve_locker(const sc::ServeCampaignResult& r) {
  for (const auto& t : r.merged.tenants) {
    if (t.kind == dl::traffic::StreamKind::kHammer &&
        (t.issued == 0 || t.granted != 0 || t.denied != t.issued)) {
      return "attacker ACTs reached the array (granted " +
             std::to_string(t.granted) + " of " + std::to_string(t.issued) +
             ")";
    }
  }
  return {};
}

// chaos-scrub: no preventive defense; RADAR-style parity2d scrubbing of a
// large weight region under a fault storm, row retirement, admission
// control and a mid-run channel kill on a 4-channel row-blocked fabric.
constexpr std::size_t kChaosCampaigns = 4;
constexpr std::uint64_t kChaosRounds = 6;
constexpr std::uint64_t kChaosProtectedRows = 48;  // per channel
constexpr std::uint64_t kChaosReaderRequests = 4000;
constexpr std::uint64_t kChaosWebRequests = 12000;

sc::ServeCampaign chaos_scrub_campaign(std::uint64_t seed, std::size_t i) {
  dl::Rng rng(substream_seed(seed, 101, i));
  sc::ServeCampaign c;
  c.name = "chaos-scrub/" + std::to_string(i);
  c.env.geometry = channel_geometry();
  c.env.disturbance.t_rh = 1000;
  c.env.disturbance_seed = substream_seed(seed, 0, i);
  c.env.fabric.channels = 4;
  c.env.fabric.interleave = dl::dram::InterleavePolicy::kRowBlocked;
  const GlobalRowId rows_per_channel = c.env.geometry.total_rows();

  sc::IntegritySpec radar;
  radar.enabled = true;
  radar.config.scheme = dl::integrity::Scheme::kParity2D;
  radar.config.group_size = 64;
  radar.scrub_interval = 1;
  c.defense = sc::DefenseSpec::none().with_integrity(radar);

  const GlobalRowId region = 64 + 8 * rng.next_below(8);  // channel-local
  for (GlobalRowId ch = 0; ch < 4; ++ch) {
    for (GlobalRowId r = 0; r < kChaosProtectedRows; ++r) {
      c.protected_rows.push_back(ch * rows_per_channel + region + r);
    }
  }
  c.env.faults.seed = substream_seed(seed, 2, i);
  c.env.faults.period_acts = 512;
  c.env.faults.retention_rate = 0.5;
  c.env.faults.transient_rate = 0.25;
  c.env.faults.stuck_cells = 4;
  c.env.faults.target_base = region;
  c.env.faults.target_rows = kChaosProtectedRows;
  c.env.resilience.spare_rows = 16;
  c.env.resilience.strike_threshold = 2;

  c.traffic.admission.enabled = true;
  c.traffic.admission.retry_budget = 4;
  auto web = dl::traffic::StreamSpec::synthetic(
      512, 7000, kChaosWebRequests, /*locality=*/0.4, /*write_fraction=*/0.5,
      substream_seed(seed, 4, i));
  web.name = "web";
  web.slo_p99 = 1'000'000;   // 1 us
  web.deadline = 2'000'000;  // 2 us
  auto weights = dl::traffic::StreamSpec::weight_reader(
      region, kChaosProtectedRows, kChaosReaderRequests);
  weights.name = "weights";
  auto pinned = dl::traffic::StreamSpec::weight_reader(
      rows_per_channel + region, kChaosProtectedRows, kChaosReaderRequests);
  pinned.name = "weights-ch1";
  pinned.pin_channel = 1;
  c.traffic.tenants = {web, weights, pinned};
  c.traffic.scheduler.batch = 2;
  c.rounds = kChaosRounds;

  c.chaos.storm_start = 1;
  c.chaos.storm_rounds = 3;
  c.chaos.period_ramp = 0.5;
  c.chaos.min_period_acts = 32;
  c.chaos.stuck_cells_per_round = 2;
  c.chaos.kill_channel = 1;
  c.chaos.kill_at_round = 2;
  c.chaos.restore_at_round = 4;
  return c;
}

std::string check_chaos_scrub(const sc::ServeCampaignResult& r) {
  const sc::AvailabilityStats& av = r.availability;
  if (!r.chaos_enabled) return "chaos block missing";
  if (av.offered != av.served + av.shed + av.failed) {
    return "offered " + std::to_string(av.offered) + " != served " +
           std::to_string(av.served) + " + shed " + std::to_string(av.shed) +
           " + failed " + std::to_string(av.failed);
  }
  return {};
}

// ------------------------------------------------------------ hammer-sweep

constexpr std::uint64_t kSweepActs = 20000;  // per attack burst
constexpr std::uint64_t kSweepCycles = 3;
constexpr std::uint64_t kSweepRepetitions = 2;
constexpr std::uint64_t kTrh = 1000;

class HammerSweep final : public Workload {
 public:
  explicit HammerSweep(std::uint64_t seed) {
    dl::Rng rng(substream_seed(seed, 102, 0));
    sc::MatrixSpec m;
    m.name_prefix = "hammer-sweep";
    m.env.geometry = channel_geometry();
    m.env.disturbance.t_rh = kTrh;
    m.env.disturbance.distance2_weight = 0.25;
    const GlobalRowId victim = 32 + rng.next_below(160);
    m.attack.victim_row = victim;
    m.attack.act_budget = kSweepActs;
    m.protected_rows = {victim};
    using dl::rowhammer::HammerPattern;
    m.patterns = {HammerPattern::kSingleSided, HammerPattern::kDoubleSided,
                  HammerPattern::kManySided, HammerPattern::kHalfDouble};
    dl::defense::DramLockerConfig locker;
    locker.protect_radius = 2;
    locker.relock_rw_interval = 64;
    // Seeds are placeholders: expand() derives every seed from base_seed.
    m.defenses = {
        sc::DefenseSpec::none(),
        sc::DefenseSpec::trr(0.01, 2, 0),
        sc::DefenseSpec::counter_per_row(kTrh / 2, 2),
        sc::DefenseSpec::graphene(kTrh / 2, 64, 2),
        sc::DefenseSpec::counter_tree(kTrh / 2, 32, 2),
        sc::DefenseSpec::hydra(kTrh / 2, 64, 2),
        sc::DefenseSpec::row_swap(kTrh, /*lazy_unswap=*/false, 0),
        sc::DefenseSpec::row_swap(kTrh, /*lazy_unswap=*/true, 0),
        sc::DefenseSpec::shadow(kTrh, 0),
        sc::DefenseSpec::dram_locker(locker, 0),
    };
    m.repetitions = kSweepRepetitions;
    m.base_seed = substream_seed(seed, 103, 0);
    specs_ = sc::expand(m);
    // Multi-cycle bursts; between them the privileged program reads the
    // locked neighbours (DRAM-Locker unlock SWAPs) and the protected row
    // itself (counts toward re-locking).
    for (sc::HammerCampaign& c : specs_) {
      c.cycles = kSweepCycles;
      c.pre_traffic = {{.row = victim - 1, .repeat = 4, .bytes = 64,
                        .can_unlock = true},
                       {.row = victim + 1, .repeat = 4, .bytes = 64,
                        .can_unlock = true}};
      c.post_traffic = {{.row = victim, .repeat = 16, .bytes = 64}};
    }
  }

  Pass run_pass(sc::CampaignJournal* journal) override {
    Pass pass;
    trace::set_request(0);
    const std::vector<sc::HammerCampaignResult> results =
        timed_call(pass, [&] { return sc::run(specs_); });
    trace::release_proxies();
    std::uint64_t undefended_flips = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sc::HammerCampaign& c = specs_[i];
      const sc::HammerCampaignResult& r = results[i];
      ++pass.campaigns;
      std::uint64_t reads_per_cycle = 0;
      for (const auto& op : c.pre_traffic) reads_per_cycle += op.repeat;
      for (const auto& op : c.post_traffic) reads_per_cycle += op.repeat;
      pass.ops += r.attack.granted_acts + r.attack.denied_acts +
                  r.completed_cycles * reads_per_cycle;
      if (r.status != sc::CampaignStatus::kOk) {
        problem(pass, r.name + ": " + sc::to_string(r.status) + " " + r.error);
      } else if (c.defense.kind == sc::DefenseSpec::Kind::kDramLocker &&
                 r.attack.flips_in_victim > 0) {
        problem(pass, r.name + ": DRAM-Locker leaked " +
                          std::to_string(r.attack.flips_in_victim) +
                          " victim flips");
      }
      if (c.defense.kind == sc::DefenseSpec::Kind::kNone) {
        undefended_flips += r.attack.flips_in_victim;
      }
    }
    if (undefended_flips == 0) {
      problem(pass, "no undefended cell leaked a victim flip");
    }
    finish(pass, journal, results, {}, {});
    return pass;
  }

 private:
  std::vector<sc::HammerCampaign> specs_;
};

// -------------------------------------------------------------- bfa-victim

/// Iterations per cell and pass.  An iteration costs about 0.35-0.5 s on
/// one 2.1 GHz Xeon core, so a pass of three cells takes about 2.5 s and a
/// run holds several.
constexpr std::size_t kBfaIterations = 2;
/// The integrity cell must recover to within this of clean accuracy.
constexpr double kNearClean = 0.1;

class BfaVictim final : public Workload {
 public:
  /// The figure benches' fast victim (bench_util resnet20_cifar10(kFast)):
  /// ResNet-20 at width 0.25 trained from scratch on 256 SynthCIFAR-10
  /// images of 32x32 pixels for 3 epochs; the attacker draws 32 images.
  /// No download.
  explicit BfaVictim(std::uint64_t seed) {
    const std::uint64_t s = substream_seed(seed, 104, 0);
    const dl::nn::SynthConfig synth = dl::nn::synth_cifar10();
    const dl::nn::Dataset train = dl::nn::make_synth_cifar(synth, 256, s + 1);
    sample_ = dl::nn::make_synth_cifar(synth, 32, s + 3);
    dl::Rng rng(s);
    model_ = dl::nn::make_resnet20(10, 0.25f, rng);
    dl::nn::SgdConfig sgd;
    sgd.epochs = 3;
    sgd.batch_size = 32;
    sgd.lr = 0.08f;
    sgd.lr_decay = 0.8f;
    dl::nn::SgdTrainer trainer(model_, sgd, dl::Rng(s + 4));
    trainer.fit(train);
    qmodel_ = std::make_unique<dl::nn::QuantizedModel>(model_);
    clean_ = dl::nn::evaluate_accuracy(model_, sample_);

    // fig8_bfa_defense's attack: fixed iterations, 3 layers evaluated.
    sc::BfaCampaign none;
    none.name = "bfa-victim/undefended";
    none.bfa.max_iterations = kBfaIterations;
    none.bfa.layers_evaluated = 3;
    none.fixed_iterations = true;
    // Erroneous-SWAP DRAM-Locker: a flip lands only when a SWAP step
    // fails (Sec. IV-D, ~0.1% at +-10% process variation).
    sc::BfaCampaign residual = none;
    residual.name = "bfa-victim/dram-locker-residual";
    residual.gate.kind = sc::GateSpec::Kind::kResidual;
    residual.gate.residual_p = 0.001;
    residual.gate.seed = substream_seed(seed, 105, 0);
    sc::BfaCampaign verified = none;
    verified.name = "bfa-victim/integrity";
    verified.integrity.enabled = true;
    verified.integrity.verify_interval = 1;
    campaigns_ = {none, residual, verified};
  }

  Pass run_pass(sc::CampaignJournal* journal) override {
    Pass pass;
    const sc::VictimRef victim{model_, *qmodel_, sample_, clean_};
    std::vector<sc::BfaCampaignResult> results;
    for (std::size_t i = 0; i < campaigns_.size(); ++i) {
      trace::set_request(i);
      results.push_back(timed_call(
          pass, [&] { return sc::run_bfa_isolated(victim, campaigns_[i]); }));
    }
    qmodel_->restore();
    // The fast victim sits near chance accuracy (as in fig8_bfa_defense
    // --fast), so a collapse of accuracy cannot be observed; the checks
    // are on where the flips went instead.
    for (std::size_t i = 0; i < results.size(); ++i) {
      const sc::BfaCampaignResult& r = results[i];
      ++pass.campaigns;
      pass.ops += r.accuracy.empty() ? 0 : r.accuracy.size() - 1;
      if (r.status != sc::CampaignStatus::kOk) {
        problem(pass, r.name + ": " + sc::to_string(r.status) + " " + r.error);
        continue;
      }
      if (i == 0 && r.flips_landed != kBfaIterations) {
        problem(pass, r.name + ": " + std::to_string(r.flips_landed) + " of " +
                          std::to_string(kBfaIterations) + " flips landed");
      } else if (i == 1 && r.gate_attempts != kBfaIterations) {
        problem(pass, r.name + ": gate saw " +
                          std::to_string(r.gate_attempts) + " flips");
      } else if (i == 1 && r.gate_landed == 0 &&
                 std::any_of(r.accuracy.begin(), r.accuracy.end(),
                             [&](double a) { return a != clean_; })) {
        // Every flip was denied, so the weights never changed.
        problem(pass, r.name + ": accuracy moved with every flip denied");
      } else if (i == 2 && r.recovered_accuracy < clean_ - kNearClean) {
        problem(pass, r.name + ": recovered accuracy only " +
                          std::to_string(r.recovered_accuracy));
      }
    }
    finish(pass, journal, {}, results, {});
    return pass;
  }

 private:
  dl::nn::Model model_;
  std::unique_ptr<dl::nn::QuantizedModel> qmodel_;
  dl::nn::Dataset sample_;
  double clean_ = 0.0;
  std::vector<sc::BfaCampaign> campaigns_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "serve-locker", "chaos-scrub", "hammer-sweep", "bfa-victim"};
  return names;
}

bool is_bfa(const std::string& name) { return name == "bfa-victim"; }

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "serve-locker" || name == "chaos-scrub") {
    const bool locker = name == "serve-locker";
    std::vector<sc::ServeCampaign> specs;
    const std::size_t n = locker ? kServeCampaigns : kChaosCampaigns;
    for (std::size_t i = 0; i < n; ++i) {
      specs.push_back(locker ? serve_locker_campaign(seed, i)
                             : chaos_scrub_campaign(seed, i));
    }
    return std::make_unique<ServeBatch>(
        std::move(specs), locker ? check_serve_locker : check_chaos_scrub);
  }
  if (name == "hammer-sweep") return std::make_unique<HammerSweep>(seed);
  if (name == "bfa-victim") return std::make_unique<BfaVictim>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
