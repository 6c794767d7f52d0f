// Tests for the RADAR-style run-time integrity subsystem: group checksums,
// weight-space verification/recovery, the DRAM scrubber, and the scenario
// integration (including DL_THREADS determinism of integrity campaigns).
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "integrity/checksum.hpp"
#include "integrity/scrubber.hpp"
#include "integrity/weight_integrity.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "nn/quant.hpp"
#include "nn/train.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace dl;
using integrity::BlockChecksums;
using integrity::Config;
using integrity::Diagnosis;
using integrity::Recovery;
using integrity::Scheme;

// ------------------------------------------------------------- checksums

std::vector<std::uint8_t> pattern_image(std::size_t n) {
  std::vector<std::uint8_t> image(n);
  for (std::size_t i = 0; i < n; ++i) {
    image[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return image;
}

TEST(Checksum, CleanImageDiagnosesClean) {
  for (const Scheme scheme : {Scheme::kParity2D, Scheme::kAdditive}) {
    Config cfg;
    cfg.scheme = scheme;
    cfg.group_size = 16;
    const auto image = pattern_image(40);  // final group is short (8 bytes)
    BlockChecksums sums(cfg, image);
    ASSERT_EQ(sums.group_count(), 3u);
    for (std::size_t g = 0; g < sums.group_count(); ++g) {
      const auto [off, len] = sums.group_range(g);
      const auto d = sums.diagnose(
          g, std::span<const std::uint8_t>(image).subspan(off, len));
      EXPECT_EQ(d.state, Diagnosis::State::kClean) << to_string(scheme);
    }
  }
}

TEST(Checksum, Parity2DLocalizesSingleBitFlip) {
  Config cfg;
  cfg.group_size = 32;
  auto image = pattern_image(32);
  BlockChecksums sums(cfg, image);
  image[13] = dl::flip_bit(image[13], 5u);
  const auto d = sums.diagnose(0, image);
  ASSERT_EQ(d.state, Diagnosis::State::kCorrectable);
  EXPECT_EQ(d.byte, 13u);
  EXPECT_EQ(d.bit, 5u);
}

TEST(Checksum, AdditiveDetectsButCannotLocalize) {
  Config cfg;
  cfg.scheme = Scheme::kAdditive;
  cfg.group_size = 32;
  auto image = pattern_image(32);
  BlockChecksums sums(cfg, image);
  image[13] = dl::flip_bit(image[13], 5u);
  EXPECT_EQ(sums.diagnose(0, image).state,
            Diagnosis::State::kUncorrectable);
}

TEST(Checksum, Parity2DFlipInChecksumStorageIsDistinguished) {
  Config cfg;
  cfg.group_size = 32;
  const auto image = pattern_image(32);
  BlockChecksums sums(cfg, image);
  // Column-parity byte hit: data verifies as checksum-corrupt, not as a
  // data fault (a naive scheme would "correct" a healthy weight here).
  sums.flip_checksum_bit(0, 0, 3);
  EXPECT_EQ(sums.diagnose(0, image).state,
            Diagnosis::State::kChecksumCorrupt);
  sums.rebuild(0, image);
  // Row-parity bit hit: same classification.
  sums.flip_checksum_bit(0, 1 + 13 / 8, 13 % 8);
  EXPECT_EQ(sums.diagnose(0, image).state,
            Diagnosis::State::kChecksumCorrupt);
}

// Byte-at-a-time reference of the parity2d layout: the column-parity byte,
// then one row-parity bit per data byte packed LSB-first.
std::vector<std::uint8_t> reference_parity2d(std::span<const std::uint8_t> data,
                                             std::size_t group_size) {
  std::vector<std::uint8_t> out(1 + (group_size + 7) / 8, 0);
  for (std::size_t j = 0; j < data.size(); ++j) {
    out[0] ^= data[j];
    const unsigned parity = static_cast<unsigned>(std::popcount(data[j])) & 1u;
    out[1 + j / 8] = static_cast<std::uint8_t>(out[1 + j / 8] |
                                               (parity << (j % 8)));
  }
  return out;
}

Diagnosis reference_diagnose(std::span<const std::uint8_t> data,
                             std::span<const std::uint8_t> ref) {
  std::uint8_t column = 0;
  std::size_t row_mismatches = 0;
  std::size_t first_row = 0;
  for (std::size_t j = 0; j < data.size(); ++j) {
    column ^= data[j];
    const unsigned want = (ref[1 + j / 8] >> (j % 8)) & 1u;
    if ((static_cast<unsigned>(std::popcount(data[j])) & 1u) != want) {
      if (row_mismatches == 0) first_row = j;
      ++row_mismatches;
    }
  }
  const auto col_diff = static_cast<std::uint8_t>(column ^ ref[0]);
  const int col_bits = std::popcount(col_diff);
  Diagnosis d;
  if (col_bits == 0 && row_mismatches == 0) {
    d.state = Diagnosis::State::kClean;
  } else if (col_bits == 1 && row_mismatches == 1) {
    d.state = Diagnosis::State::kCorrectable;
    d.byte = static_cast<std::uint32_t>(first_row);
    d.bit = static_cast<unsigned>(std::countr_zero(col_diff));
  } else if (col_bits + static_cast<int>(row_mismatches) == 1) {
    d.state = Diagnosis::State::kChecksumCorrupt;
  } else {
    d.state = Diagnosis::State::kUncorrectable;
  }
  return d;
}

std::vector<std::uint8_t> stored_bytes(const BlockChecksums& sums,
                                       std::size_t g) {
  std::vector<std::uint8_t> out(sums.bytes_per_group());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = sums.checksum_byte(g, k);
  }
  return out;
}

void expect_same_diagnosis(const Diagnosis& got, const Diagnosis& want) {
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.byte, want.byte);
  EXPECT_EQ(got.bit, want.bit);
}

TEST(Checksum, Parity2DMatchesByteWiseReference) {
  // The kernel works on 8-byte words with a byte-wise tail; every group
  // size below (multiples of 8 and not, each with a short final group)
  // must store and diagnose exactly like the byte-at-a-time reference.
  for (const std::uint32_t gs : {8u, 12u, 63u, 64u, 100u}) {
    SCOPED_TRACE(gs);
    Config cfg;
    cfg.group_size = gs;
    std::vector<std::uint8_t> image(2 * gs + gs / 2 + 3);
    dl::Rng rng(gs);
    for (auto& b : image) b = static_cast<std::uint8_t>(rng.next_below(256));
    BlockChecksums sums(cfg, image);
    ASSERT_EQ(sums.group_count(), 3u);
    for (std::size_t g = 0; g < sums.group_count(); ++g) {
      SCOPED_TRACE(g);
      const auto [off, len] = sums.group_range(g);
      std::vector<std::uint8_t> data(image.begin() + off,
                                     image.begin() + off + len);
      const auto ref = reference_parity2d(data, gs);
      ASSERT_EQ(stored_bytes(sums, g), ref);
      expect_same_diagnosis(sums.diagnose(g, data),
                            reference_diagnose(data, ref));

      // Every single data-bit flip, and a rebuild over the flipped bytes.
      for (std::size_t j = 0; j < len; ++j) {
        for (unsigned bit = 0; bit < 8; ++bit) {
          data[j] = dl::flip_bit(data[j], bit);
          const Diagnosis d = sums.diagnose(g, data);
          EXPECT_EQ(d.state, Diagnosis::State::kCorrectable);
          expect_same_diagnosis(d, reference_diagnose(data, ref));
          data[j] = dl::flip_bit(data[j], bit);
        }
      }
      data[len - 1] = dl::flip_bit(data[len - 1], 6u);
      sums.rebuild(g, data);
      EXPECT_EQ(stored_bytes(sums, g), reference_parity2d(data, gs));
      data[len - 1] = dl::flip_bit(data[len - 1], 6u);
      sums.rebuild(g, data);
      ASSERT_EQ(stored_bytes(sums, g), ref);

      // Every checksum-bit flip, including row-parity bits past the end of
      // a short final group (which guard nothing and must stay ignored).
      for (std::size_t k = 0; k < sums.bytes_per_group(); ++k) {
        for (unsigned bit = 0; bit < 8; ++bit) {
          sums.flip_checksum_bit(g, k, bit);
          const auto flipped = stored_bytes(sums, g);
          expect_same_diagnosis(sums.diagnose(g, data),
                                reference_diagnose(data, flipped));
          sums.flip_checksum_bit(g, k, bit);
        }
      }

      // Double flips: two bits of one byte, and bits of two distinct bytes.
      for (std::size_t j = 0; j < len; ++j) {
        const std::size_t other = (j * 7 + 3) % len;
        const unsigned b1 = static_cast<unsigned>(j % 8);
        const unsigned b2 = static_cast<unsigned>((j + 3) % 8);
        for (const std::size_t j2 : {j, other}) {
          data[j] = dl::flip_bit(data[j], b1);
          data[j2] = dl::flip_bit(data[j2], b2);
          const Diagnosis d = sums.diagnose(g, data);
          EXPECT_NE(d.state, Diagnosis::State::kClean);
          expect_same_diagnosis(d, reference_diagnose(data, ref));
          data[j2] = dl::flip_bit(data[j2], b2);
          data[j] = dl::flip_bit(data[j], b1);
        }
      }

      // Rectangles: two bytes flipped at the same two bit positions cancel
      // every parity — the scheme's known false negative.
      for (std::size_t j = 0; j + 1 < len; j += 5) {
        const std::size_t j2 = len - 1 - j / 2;
        if (j2 == j) continue;
        for (const std::size_t byte : {j, j2}) {
          data[byte] = dl::flip_bit(data[byte], 1u);
          data[byte] = dl::flip_bit(data[byte], 6u);
        }
        const Diagnosis d = sums.diagnose(g, data);
        EXPECT_EQ(d.state, Diagnosis::State::kClean);
        expect_same_diagnosis(d, reference_diagnose(data, ref));
        for (const std::size_t byte : {j, j2}) {
          data[byte] = dl::flip_bit(data[byte], 6u);
          data[byte] = dl::flip_bit(data[byte], 1u);
        }
      }
    }
  }
}

TEST(Checksum, Parity2DMultiFlipDetectedButUncorrectable) {
  Config cfg;
  cfg.group_size = 32;
  auto image = pattern_image(32);
  BlockChecksums sums(cfg, image);
  // Two flips in different bytes at different bit positions.
  image[3] = dl::flip_bit(image[3], 1u);
  image[20] = dl::flip_bit(image[20], 6u);
  EXPECT_EQ(sums.diagnose(0, image).state,
            Diagnosis::State::kUncorrectable);
}

TEST(Checksum, KnownFalseNegatives) {
  // Parity2D misses a "rectangle": two bytes flipped at the same two bit
  // positions — every row and column parity cancels.
  Config cfg;
  cfg.group_size = 32;
  auto image = pattern_image(32);
  BlockChecksums sums(cfg, image);
  for (const std::size_t byte : {std::size_t{4}, std::size_t{9}}) {
    image[byte] = dl::flip_bit(image[byte], 2u);
    image[byte] = dl::flip_bit(image[byte], 7u);
  }
  EXPECT_EQ(sums.diagnose(0, image).state, Diagnosis::State::kClean);

  // Additive misses a +2^b / -2^b pair.
  Config add_cfg;
  add_cfg.scheme = Scheme::kAdditive;
  add_cfg.group_size = 32;
  auto add_image = pattern_image(32);
  add_image[0] = 0x00;  // bit 4 off -> flip adds 16
  add_image[1] = 0x10;  // bit 4 on  -> flip subtracts 16
  BlockChecksums add_sums(add_cfg, add_image);
  add_image[0] = dl::flip_bit(add_image[0], 4u);
  add_image[1] = dl::flip_bit(add_image[1], 4u);
  EXPECT_EQ(add_sums.diagnose(0, add_image).state,
            Diagnosis::State::kClean);
}

// ------------------------------------------------------- weight integrity

nn::Model tiny_model(dl::Rng& rng) {
  nn::Model m;
  m.add(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, rng));
  m.add(std::make_unique<nn::ReLU>());
  m.add(std::make_unique<nn::GlobalAvgPool>());
  m.add(std::make_unique<nn::Linear>(4, 2, rng));
  return m;
}

TEST(WeightIntegrity, CorrectsSingleBitFlipPerGroup) {
  dl::Rng rng(5);
  nn::Model m = tiny_model(rng);
  nn::QuantizedModel q(m);
  Config cfg;
  cfg.group_size = 16;
  integrity::WeightIntegrity wi(q, cfg);

  const std::int8_t before = q.weight_word(0, 7);
  q.flip_bit({0, 7, 6});
  ASSERT_NE(q.weight_word(0, 7), before);

  wi.verify_all();
  EXPECT_EQ(q.weight_word(0, 7), before);
  EXPECT_EQ(wi.stats().detections, 1u);
  EXPECT_EQ(wi.stats().corrected_bits, 1u);
  // The float view was re-materialized from the corrected word.
  EXPECT_FLOAT_EQ(q.layer(0).target->value[7],
                  static_cast<float>(before) * q.layer(0).scale);
  const auto audit = wi.audit();
  EXPECT_EQ(audit.corrupt_bytes, 0u);
}

TEST(WeightIntegrity, MultiFlipGroupIsZeroedUnderCorrectOrZero) {
  dl::Rng rng(6);
  nn::Model m = tiny_model(rng);
  nn::QuantizedModel q(m);
  Config cfg;
  cfg.group_size = 16;
  integrity::WeightIntegrity wi(q, cfg);

  // Two flips inside group 0 of layer 0: detectable, not correctable.
  q.flip_bit({0, 2, 1});
  q.flip_bit({0, 9, 4});
  wi.verify_all();
  EXPECT_EQ(wi.stats().zeroed_groups, 1u);
  EXPECT_EQ(wi.stats().zeroed_corrupt_bytes, 2u);
  EXPECT_EQ(wi.stats().corrected_bits, 0u);
  for (std::size_t w = 0; w < 16; ++w) {
    EXPECT_EQ(q.weight_word(0, w), 0) << w;
  }
  // The sacrifice is adopted as clean state: a re-verify is quiet and the
  // audit reports no surviving corruption.
  wi.verify_all();
  EXPECT_EQ(wi.stats().zeroed_groups, 1u);
  EXPECT_EQ(wi.audit().corrupt_bytes, 0u);
}

TEST(WeightIntegrity, MultiFlipLeftInPlaceUnderDetectOnly) {
  dl::Rng rng(6);
  nn::Model m = tiny_model(rng);
  nn::QuantizedModel q(m);
  Config cfg;
  cfg.group_size = 16;
  cfg.recovery = Recovery::kDetectOnly;
  integrity::WeightIntegrity wi(q, cfg);

  q.flip_bit({0, 2, 1});
  q.flip_bit({0, 9, 4});
  wi.verify_all();
  EXPECT_EQ(wi.stats().detections, 1u);
  EXPECT_EQ(wi.stats().uncorrectable, 1u);
  EXPECT_EQ(wi.stats().zeroed_groups, 0u);
  const auto audit = wi.audit();
  EXPECT_EQ(audit.corrupt_bytes, 2u);
  EXPECT_EQ(audit.missed_bytes, 0u);  // detected, just not recovered
}

TEST(WeightIntegrity, ChecksumFlipRepairedWithoutTouchingWeights) {
  dl::Rng rng(7);
  nn::Model m = tiny_model(rng);
  nn::QuantizedModel q(m);
  Config cfg;
  cfg.group_size = 16;
  integrity::WeightIntegrity wi(q, cfg);

  const std::vector<std::int8_t> before = q.layer(0).q;
  wi.layer_checksums(0).flip_checksum_bit(1, 0, 2);  // column byte, group 1
  wi.verify_all();
  EXPECT_EQ(wi.stats().checksum_repairs, 1u);
  EXPECT_EQ(wi.stats().corrected_bits, 0u);
  EXPECT_EQ(q.layer(0).q, before);
  // Repaired: the next sweep is quiet.
  wi.verify_all();
  EXPECT_EQ(wi.stats().detections, 1u);
}

TEST(WeightIntegrity, LazyHooksVerifyOnVictimInferenceOnly) {
  dl::Rng rng(8);
  nn::Model m = tiny_model(rng);
  nn::QuantizedModel q(m);
  Config cfg;
  cfg.group_size = 16;
  integrity::WeightIntegrity wi(q, cfg);
  wi.attach(m);

  const std::int8_t before = q.weight_word(1, 3);
  q.flip_bit({1, 3, 5});

  nn::Tensor x({1, 3, 6, 6});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = 0.1f;
  {
    // Attacker-side evaluation: hooks suspended, flip survives.
    nn::HookSuspensionScope suspend(m);
    (void)m.forward(x);
    EXPECT_NE(q.weight_word(1, 3), before);
    EXPECT_EQ(wi.stats().verified_groups, 0u);
  }
  // Victim-side inference: the layer hook verifies and recovers lazily.
  (void)m.forward(x);
  EXPECT_EQ(q.weight_word(1, 3), before);
  EXPECT_EQ(wi.stats().corrected_bits, 1u);
  wi.detach();
  EXPECT_FALSE(m.has_forward_hook());
}

// --------------------------------------------------------------- scrubber

scenario::DramEnv small_env(std::uint64_t t_rh = 600) {
  scenario::DramEnv e;
  e.geometry.channels = 1;
  e.geometry.ranks = 1;
  e.geometry.banks = 2;
  e.geometry.subarrays_per_bank = 4;
  e.geometry.rows_per_subarray = 128;
  e.geometry.row_bytes = 1024;
  e.disturbance.t_rh = t_rh;
  e.disturbance_seed = 1;
  return e;
}

TEST(DramScrubber, DetectsAndCorrectsInjectedFlip) {
  const auto env = small_env();
  dram::Controller ctrl(env.geometry, env.timing);
  Config cfg;
  cfg.group_size = 64;
  integrity::DramScrubber scrubber(ctrl, {20, 22}, cfg);

  // Inject a fault straight into the backing store (as the disturbance
  // model would) and scrub.
  const std::uint8_t before = ctrl.data().read_byte(20, 100);
  ctrl.data().flip_bit(20, 100, 3);
  scrubber.scrub_pass();

  EXPECT_EQ(scrubber.stats().detections, 1u);
  EXPECT_EQ(scrubber.stats().corrected_bits, 1u);
  EXPECT_EQ(ctrl.data().read_byte(20, 100), before);
  EXPECT_EQ(scrubber.stats().scrub_reads, 2u * (1024 / 64));
  EXPECT_GT(scrubber.stats().first_detection_at, 0u);
  const auto audit = scrubber.audit();
  EXPECT_EQ(audit.corrupt_bytes, 0u);
}

TEST(DramScrubber, ScrubTimeIsChargedAsDefenseOverhead) {
  const auto env = small_env();
  dram::Controller ctrl(env.geometry, env.timing);
  Config cfg;
  cfg.group_size = 128;
  integrity::DramScrubber scrubber(ctrl, {10}, cfg);
  const Picoseconds before = ctrl.defense_time();
  scrubber.scrub_pass();
  EXPECT_GT(ctrl.defense_time(), before);
}

/// Gate double that denies every write: the scrubber can see the fault but
/// cannot land the recovery.
struct DenyWritesGate final : dram::AccessGate {
  dram::GateDecision before_access(const dram::AccessRequest& req,
                                   dram::Controller&) override {
    return req.is_write ? dram::GateDecision::kDeny
                        : dram::GateDecision::kAllow;
  }
};

TEST(DramScrubber, DeniedRecoveryCountsUnrecoverableFaults) {
  const auto env = small_env();
  dram::Controller ctrl(env.geometry, env.timing);
  Config cfg;
  cfg.group_size = 64;
  integrity::DramScrubber scrubber(ctrl, {20}, cfg);
  DenyWritesGate gate;
  ctrl.set_gate(&gate);

  const std::uint8_t before = ctrl.data().read_byte(20, 100);
  ctrl.data().flip_bit(20, 100, 3);
  scrubber.scrub_pass();

  // Detected, correction attempted, write denied: the fault stays in DRAM
  // and is reported as unrecoverable instead of silently re-counted as a
  // fresh detection forever.
  EXPECT_EQ(scrubber.stats().detections, 1u);
  EXPECT_EQ(scrubber.stats().corrected_bits, 0u);
  EXPECT_EQ(scrubber.stats().denied_accesses, 1u);
  EXPECT_EQ(scrubber.stats().unrecoverable_faults, 1u);
  EXPECT_NE(ctrl.data().read_byte(20, 100), before);

  // Lifting the denial lets the next pass repair it.
  ctrl.set_gate(nullptr);
  scrubber.scrub_pass();
  EXPECT_EQ(scrubber.stats().corrected_bits, 1u);
  EXPECT_EQ(scrubber.stats().unrecoverable_faults, 1u);
  EXPECT_EQ(ctrl.data().read_byte(20, 100), before);
}

// --------------------------------------------- scenario campaign wiring

scenario::HammerCampaign integrity_campaign(std::uint64_t budget = 30000) {
  scenario::HammerCampaign c;
  c.name = "integrity-burst";
  c.env = small_env();
  c.defense = scenario::DefenseSpec::none().with_integrity({});
  c.attack.victim_row = 20;
  c.attack.act_budget = budget;
  c.protected_rows = {20};
  c.cycles = 3;
  return c;
}

TEST(ScenarioIntegrity, BurstCampaignDetectsAndRecovers) {
  const auto r = scenario::run_one(integrity_campaign());
  ASSERT_TRUE(r.integrity_enabled);
  EXPECT_GT(r.attack.flips_in_victim, 0u);
  EXPECT_GT(r.integrity.passes, 0u);
  EXPECT_GT(r.integrity.detections, 0u);
  EXPECT_GT(r.integrity.corrected_bits + r.integrity.zeroed_groups, 0u);
  // Everything the attack landed in the guarded row was either recovered
  // or is still flagged — residual-but-missed corruption would need a
  // parity-cancelling pattern.
  EXPECT_EQ(r.integrity_audit.missed_bytes, 0u);
}

TEST(ScenarioIntegrity, ComposesWithDramLocker) {
  scenario::HammerCampaign c = integrity_campaign();
  c.name = "locker+integrity";
  defense::DramLockerConfig locker_cfg;
  locker_cfg.protect_radius = 2;
  c.defense =
      scenario::DefenseSpec::dram_locker(locker_cfg, 2).with_integrity({});
  const auto r = scenario::run_one(c);
  ASSERT_TRUE(r.integrity_enabled);
  // DRAM-Locker denies every aggressor ACT, so the scrubber finds nothing.
  EXPECT_EQ(r.attack.flips_in_victim, 0u);
  EXPECT_EQ(r.integrity.detections, 0u);
  EXPECT_GT(r.integrity.scrub_reads, 0u);
  EXPECT_GT(r.locker.denied, 0u);
}

scenario::HammerCampaign traffic_integrity_campaign() {
  scenario::HammerCampaign c = integrity_campaign(8000);
  c.name = "integrity-traffic";
  c.cycles = 2;
  c.traffic.tenants = {
      traffic::StreamSpec::weight_reader(/*base_row=*/16, /*rows=*/8,
                                         /*requests=*/2000),
      traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                  /*victim_row=*/20, /*acts=*/8000),
  };
  c.traffic.scheduler.batch = 2;
  return c;
}

TEST(ScenarioIntegrity, TrafficCampaignRunsScrubTenant) {
  const auto r = scenario::run_one(traffic_integrity_campaign());
  ASSERT_TRUE(r.integrity_enabled);
  ASSERT_EQ(r.tenants.size(), 3u);  // reader + hammer + scrub
  const auto& scrub = r.tenants.back();
  EXPECT_EQ(scrub.kind, traffic::StreamKind::kScrub);
  EXPECT_EQ(scrub.name, "scrub");
  // One full sweep per cycle: rows * (row_bytes / group) * cycles reads.
  EXPECT_EQ(scrub.issued, 2u * (1024 / 64));
  EXPECT_EQ(scrub.data_bytes, scrub.issued * 64);
  EXPECT_EQ(r.integrity.scrub_reads, scrub.issued);
  EXPECT_EQ(r.integrity.passes, 2u);
  EXPECT_GT(r.integrity.detections, 0u);
}

TEST(ScenarioIntegrity, ReportsAreThreadCountInvariant) {
  std::vector<scenario::HammerCampaign> campaigns = {
      integrity_campaign(), traffic_integrity_campaign()};
  {
    scenario::HammerCampaign both = traffic_integrity_campaign();
    both.name = "locker+integrity-traffic";
    defense::DramLockerConfig locker_cfg;
    locker_cfg.protect_radius = 2;
    both.defense =
        scenario::DefenseSpec::dram_locker(locker_cfg, 2).with_integrity({});
    campaigns.push_back(both);
  }

  parallel::set_threads(1);
  const auto serial = scenario::run(campaigns);
  parallel::set_threads(8);
  const auto threaded = scenario::run(campaigns);
  parallel::set_threads(0);  // back to the environment default

  const std::string a = scenario::report_json(serial).dump(2);
  const std::string b = scenario::report_json(threaded).dump(2);
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------ BFA campaigns

/// Small trained victim shared by the BFA-integrity tests (train once).
struct BfaFixture {
  nn::Dataset train, sample;
  nn::Model model;
  std::unique_ptr<nn::QuantizedModel> qmodel;
  double clean_acc = 0.0;

  BfaFixture() {
    nn::SynthConfig cfg = nn::synth_cifar10();
    cfg.num_classes = 4;
    train = nn::make_synth_cifar(cfg, 128, 31);
    sample = nn::make_synth_cifar(cfg, 32, 32);
    dl::Rng rng(33);
    model.add(std::make_unique<nn::Conv2d>(3, 8, 3, 2, 1, rng));
    model.add(std::make_unique<nn::BatchNorm2d>(8));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::Conv2d>(8, 8, 3, 2, 1, rng));
    model.add(std::make_unique<nn::BatchNorm2d>(8));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::GlobalAvgPool>());
    model.add(std::make_unique<nn::Linear>(8, 4, rng));
    nn::SgdConfig scfg;
    scfg.epochs = 6;
    scfg.batch_size = 16;
    scfg.lr = 0.08f;
    nn::SgdTrainer trainer(model, scfg, dl::Rng(34));
    trainer.fit(train);
    qmodel = std::make_unique<nn::QuantizedModel>(model);
    clean_acc = nn::evaluate_accuracy(model, sample);
  }
};

BfaFixture& bfa_fixture() {
  static BfaFixture f;
  return f;
}

TEST(ScenarioIntegrity, BfaCampaignRecoversAccuracy) {
  auto& f = bfa_fixture();
  const scenario::VictimRef victim{f.model, *f.qmodel, f.sample, f.clean_acc};

  scenario::BfaCampaign attacked;
  attacked.name = "bfa/no-defense";
  attacked.bfa.max_iterations = 12;
  attacked.bfa.layers_evaluated = 2;
  attacked.fixed_iterations = true;

  // Verify every iteration: at most one flip lands between sweeps, so
  // every fault is single-bit correctable and nothing must be zeroed
  // (coarser cadences accumulate multi-flip groups and pay the zero-out
  // accuracy cost instead — that trade-off is the bench's story).
  scenario::BfaCampaign defended = attacked;
  defended.name = "bfa/integrity";
  defended.integrity.enabled = true;
  defended.integrity.verify_interval = 1;

  const auto results = scenario::run_bfa(victim, {attacked, defended});
  const auto& base = results[0];
  const auto& radar = results[1];

  EXPECT_FALSE(base.integrity_enabled);
  ASSERT_TRUE(radar.integrity_enabled);
  EXPECT_GT(radar.integrity.verified_groups, 0u);
  // Every landed flip mutated the checksummed view; periodic verification
  // caught and recovered them, so the defense ends near clean accuracy.
  EXPECT_GT(radar.flips_landed, 0u);
  EXPECT_EQ(radar.integrity.corrected_bits, radar.flips_landed);
  EXPECT_EQ(radar.integrity.zeroed_groups, 0u);
  EXPECT_EQ(radar.integrity_audit.corrupt_bytes, 0u);
  EXPECT_GE(radar.recovered_accuracy, radar.accuracy_before_recovery);
  EXPECT_NEAR(radar.recovered_accuracy, f.clean_acc, 1e-12);
}

TEST(ScenarioIntegrity, BfaLazyHooksBlockAttackProgress) {
  auto& f = bfa_fixture();
  const scenario::VictimRef victim{f.model, *f.qmodel, f.sample, f.clean_acc};

  scenario::BfaCampaign lazy;
  lazy.name = "bfa/integrity-lazy";
  lazy.bfa.max_iterations = 8;
  lazy.bfa.layers_evaluated = 2;
  lazy.fixed_iterations = true;
  lazy.integrity.enabled = true;
  lazy.integrity.lazy_hooks = true;

  const auto r = scenario::run_bfa(victim, lazy);
  ASSERT_TRUE(r.integrity_enabled);
  // Victim-side inference after every iteration verifies lazily: no flip
  // survives to the end and the final curve point is the clean accuracy.
  EXPECT_EQ(r.integrity_audit.corrupt_bytes, 0u);
  EXPECT_NEAR(r.accuracy.back(), f.clean_acc, 1e-12);
  EXPECT_GE(r.integrity.corrected_bits + r.integrity.zeroed_groups,
            r.flips_landed > 0 ? 1u : 0u);
}

TEST(ScenarioIntegrity, ExpandLabelsIntegrityCells) {
  scenario::MatrixSpec spec;
  spec.env = small_env();
  spec.attack.victim_row = 20;
  spec.attack.act_budget = 100;
  spec.patterns = {rowhammer::HammerPattern::kDoubleSided};
  defense::DramLockerConfig locker_cfg;
  spec.defenses = {
      scenario::DefenseSpec::none(),
      scenario::DefenseSpec::dram_locker(locker_cfg, 0),
      scenario::DefenseSpec::none().with_integrity({}),
      scenario::DefenseSpec::dram_locker(locker_cfg, 0).with_integrity({}),
  };
  const auto campaigns = scenario::expand(spec);
  ASSERT_EQ(campaigns.size(), 4u);
  EXPECT_EQ(campaigns[0].name, "campaign/double-sided/none");
  EXPECT_EQ(campaigns[1].name, "campaign/double-sided/dram-locker");
  EXPECT_EQ(campaigns[2].name, "campaign/double-sided/none+integrity");
  EXPECT_EQ(campaigns[3].name,
            "campaign/double-sided/dram-locker+integrity");
  EXPECT_TRUE(campaigns[2].defense.integrity.enabled);
  EXPECT_FALSE(campaigns[1].defense.integrity.enabled);
}

}  // namespace
