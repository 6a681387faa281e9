// ratt::obs::prof — round-id derivation, ShardProfile accumulation, the
// canonical ProfileTable merge and its exports, and the prover-level
// phase partition (per-round phases sum exactly to cycles(device_ms)).
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "ratt/attest/prover.hpp"
#include "ratt/attest/verifier.hpp"
#include "ratt/obs/prof/profile.hpp"

namespace ratt::obs::prof {
namespace {

TEST(RoundId, DeterministicAndWellSpread) {
  // Pure function of (device, seq) — no global state.
  EXPECT_EQ(make_round_id(3, 7), make_round_id(3, 7));
  // Never the "no round" sentinel.
  std::set<std::uint64_t> ids;
  for (std::uint64_t dev = 0; dev < 64; ++dev) {
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
      const std::uint64_t id = make_round_id(dev, seq);
      EXPECT_NE(id, 0u);
      ids.insert(id);
    }
  }
  // The finalizer spreads: 64x64 pairs, no collisions.
  EXPECT_EQ(ids.size(), 64u * 64u);
}

TEST(PhaseNames, RoundTrip) {
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    EXPECT_EQ(phase_from_string(to_string(phase)), phase);
  }
  EXPECT_EQ(static_cast<std::size_t>(phase_from_string("bogus")),
            kPhaseCount);
}

PhaseSample sample(Phase phase, std::uint64_t dev, std::uint64_t cycles,
                   double energy = 0.0) {
  PhaseSample s;
  s.phase = phase;
  s.device_id = dev;
  s.cycles = cycles;
  s.energy_mj = energy;
  return s;
}

TEST(ShardProfile, AccumulatesPerDevicePerPhase) {
  ShardProfile shard;
  shard.record(sample(Phase::kMemMac, 1, 100, 0.5));
  shard.record(sample(Phase::kMemMac, 1, 50, 0.25));
  shard.record(sample(Phase::kReqAuth, 2, 7));
  EXPECT_EQ(shard.samples_total(), 3u);
  const auto& cells = shard.devices();
  ASSERT_EQ(cells.size(), 2u);
  const PhaseCost& mem =
      cells.at(1)[static_cast<std::size_t>(Phase::kMemMac)];
  EXPECT_EQ(mem.cycles, 150u);
  EXPECT_DOUBLE_EQ(mem.energy_mj, 0.75);
  EXPECT_EQ(mem.count, 2u);
  EXPECT_EQ(cells.at(2)[static_cast<std::size_t>(Phase::kReqAuth)].cycles,
            7u);
}

// --- Flat row storage vs a std::map reference --------------------------
//
// ShardProfile keeps one flat row per device id in the span it recorded;
// the reference below is the obvious map-per-device accumulator. Every
// recording order must give the same ascending-id view and JSONL.

using Reference = std::map<std::uint64_t, DevicePhases>;

void record_both(ShardProfile& profile, Reference& ref,
                 const PhaseSample& s) {
  profile.record(s);
  PhaseCost& cell = ref[s.device_id][static_cast<std::size_t>(s.phase)];
  cell.cycles += s.cycles;
  cell.energy_mj += s.energy_mj;
  cell.bus_bytes += s.bus_bytes;
  cell.mac_bytes += s.mac_bytes;
  ++cell.count;
}

void expect_matches(const ShardProfile& profile, const Reference& ref) {
  std::vector<std::uint64_t> ids;
  auto want = ref.begin();
  for (const auto& [device, phases] : profile.devices()) {
    ids.push_back(device);
    ASSERT_NE(want, ref.end()) << "extra device " << device;
    EXPECT_EQ(device, want->first);
    EXPECT_EQ(phases, want->second) << "device " << device;
    EXPECT_EQ(profile.devices().at(device), want->second);
    ++want;
  }
  EXPECT_EQ(want, ref.end()) << "missing devices";
  EXPECT_EQ(profile.devices().size(), ref.size());
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

/// The documented JSONL schema, written straight from the reference map.
std::string reference_jsonl(const Reference& ref) {
  std::string out;
  const auto num = [&out](auto v) {
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  for (const auto& [device, phases] : ref) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const PhaseCost& c = phases[p];
      if (c.count == 0) continue;
      out += "{\"device_id\":";
      num(device);
      out += ",\"phase\":\"";
      out += to_string(static_cast<Phase>(p));
      out += "\",\"count\":";
      num(c.count);
      out += ",\"cycles\":";
      num(c.cycles);
      out += ",\"energy_mj\":";
      num(c.energy_mj);
      out += ",\"bus_bytes\":";
      num(c.bus_bytes);
      out += ",\"mac_bytes\":";
      num(c.mac_bytes);
      out += "}\n";
    }
  }
  return out;
}

std::string table_jsonl(std::span<const ShardProfile* const> shards) {
  std::ostringstream out;
  ProfileTable::merge(shards).write_jsonl(out);
  return out.str();
}

PhaseSample varied(std::uint64_t dev, std::uint64_t k) {
  PhaseSample s = sample(static_cast<Phase>(k % kPhaseCount), dev,
                         100 + 7 * k, 0.001 * static_cast<double>(k + 1));
  s.bus_bytes = k * 3;
  s.mac_bytes = k * 5;
  return s;
}

TEST(ShardProfileFlat, DecreasingIdsMatchReference) {
  ShardProfile profile;
  Reference ref;
  std::uint64_t k = 0;
  for (std::uint64_t dev = 300; dev-- > 200;) {
    record_both(profile, ref, varied(dev, k++));
    record_both(profile, ref, varied(dev, k++));
  }
  expect_matches(profile, ref);
  const ShardProfile* shards[] = {&profile};
  EXPECT_EQ(table_jsonl(shards), reference_jsonl(ref));
}

TEST(ShardProfileFlat, InterleavedIdsWithGapsMatchReference) {
  // Scattered first touches, repeats and never-recorded ids in between.
  ShardProfile profile;
  Reference ref;
  const std::uint64_t order[] = {517, 40, 900, 41, 517, 3, 899, 40, 64,
                                 901, 2, 517, 1000, 1};
  std::uint64_t k = 0;
  for (const std::uint64_t dev : order) {
    record_both(profile, ref, varied(dev, k++));
  }
  expect_matches(profile, ref);
  EXPECT_THROW((void)profile.devices().at(42), std::out_of_range);
  EXPECT_THROW((void)profile.devices().at(0), std::out_of_range);
  EXPECT_THROW((void)profile.devices().at(5000), std::out_of_range);
  const ShardProfile* shards[] = {&profile};
  EXPECT_EQ(table_jsonl(shards), reference_jsonl(ref));
}

TEST(ShardProfileFlat, DeviceZeroAndEmptyProfile) {
  ShardProfile profile;
  EXPECT_EQ(profile.devices().size(), 0u);
  EXPECT_EQ(profile.devices().begin(), profile.devices().end());
  Reference ref;
  record_both(profile, ref, varied(5, 0));
  record_both(profile, ref, varied(0, 1));  // below the first id
  record_both(profile, ref, varied(0, 2));
  expect_matches(profile, ref);
  EXPECT_EQ((*profile.devices().begin()).first, 0u);
}

TEST(ShardProfileFlat, ProfileSharedAcrossShardsMatchesReference) {
  // The attach_observer layout: one profile sees every shard's devices,
  // in whatever order the serial drain interleaves them. Here four
  // 64-device shards take turns, the last shard first.
  ShardProfile shared;
  Reference ref;
  std::uint64_t k = 0;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      for (std::uint64_t shard = 4; shard-- > 0;) {
        const std::uint64_t dev = shard * 64 + (i * 37) % 64;
        record_both(shared, ref, varied(dev, k++));
      }
    }
  }
  expect_matches(shared, ref);
  EXPECT_EQ(shared.samples_total(), k);
  const ShardProfile* shards[] = {&shared};
  EXPECT_EQ(table_jsonl(shards), reference_jsonl(ref));
}

TEST(ShardProfileFlat, MergeOfShardsEqualsOneProfile) {
  // Per-shard profiles over contiguous ranges merge to the same JSONL as
  // one profile fed every sample, in either merge order.
  ShardProfile low;
  ShardProfile high;
  ShardProfile all;
  Reference ref;
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const std::uint64_t dev = (i * 53) % 128;
    const PhaseSample s = varied(dev, k++);
    (dev < 64 ? low : high).record(s);
    record_both(all, ref, s);
  }
  const ShardProfile* split[] = {&low, &high};
  const ShardProfile* reversed[] = {&high, &low};
  const ShardProfile* whole[] = {&all};
  EXPECT_EQ(table_jsonl(split), reference_jsonl(ref));
  EXPECT_EQ(table_jsonl(reversed), reference_jsonl(ref));
  EXPECT_EQ(table_jsonl(whole), reference_jsonl(ref));
}

TEST(ShardProfileFlat, HookSeesEverySampleInOrder) {
  struct Tap : PhaseHook {
    std::vector<std::tuple<std::uint64_t, Phase, std::uint64_t>> seen;
    void on_phase(const PhaseSample& s) override {
      seen.emplace_back(s.device_id, s.phase, s.cycles);
    }
  } tap;
  ShardProfile profile;
  profile.set_hook(&tap);
  std::vector<std::tuple<std::uint64_t, Phase, std::uint64_t>> sent;
  std::uint64_t k = 0;
  for (const std::uint64_t dev : {9, 3, 9, 0, 12, 3}) {
    const PhaseSample s = varied(dev, k++);
    profile.record(s);
    sent.emplace_back(s.device_id, s.phase, s.cycles);
  }
  EXPECT_EQ(tap.seen, sent);
  EXPECT_EQ(profile.samples_total(), sent.size());
}

TEST(ProfileTable, MergeIsCollationInDeviceOrder) {
  ShardProfile a;  // devices 0, 2
  a.record(sample(Phase::kMemMac, 2, 10));
  a.record(sample(Phase::kMemMac, 0, 1));
  ShardProfile b;  // device 1
  b.record(sample(Phase::kNetWait, 1, 5));

  const ShardProfile* shards_ab[] = {&a, &b};
  const ShardProfile* shards_ba[] = {&b, &a};
  const ProfileTable ab = ProfileTable::merge(shards_ab);
  const ProfileTable ba = ProfileTable::merge(shards_ba);
  // Shard order must not matter: each device lives in one shard, the
  // table keys by device.
  EXPECT_EQ(ab, ba);
  ASSERT_EQ(ab.devices().size(), 3u);
  EXPECT_EQ(ab.total(Phase::kMemMac).cycles, 11u);
  EXPECT_EQ(ab.total(Phase::kNetWait).cycles, 5u);
  EXPECT_EQ(ab.total_cycles(), 16u);
}

TEST(ProfileTable, JsonlGoldenShape) {
  ShardProfile shard;
  shard.record(sample(Phase::kMemMac, 3, 100, 0.5));
  const ShardProfile* shards[] = {&shard};
  const ProfileTable table = ProfileTable::merge(shards);
  std::ostringstream out;
  table.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"device_id\":3,\"phase\":\"mem_mac\",\"count\":1,"
            "\"cycles\":100,\"energy_mj\":0.5,\"bus_bytes\":0,"
            "\"mac_bytes\":0}\n");
}

TEST(ProfileTable, ReportShowsCoverage) {
  ShardProfile shard;
  shard.record(sample(Phase::kMemMac, 0, 95));
  shard.record(sample(Phase::kOther, 0, 5));
  const ShardProfile* shards[] = {&shard};
  std::ostringstream out;
  ProfileTable::merge(shards).write_report(out, 24e6);
  const std::string text = out.str();
  EXPECT_NE(text.find("mem_mac"), std::string::npos);
  EXPECT_NE(text.find("coverage: 95.00% of 100 total cycles"),
            std::string::npos);
  EXPECT_NE(text.find("(other 5.00%)"), std::string::npos);
}

// --- Prover-level phase partition. ---

crypto::Bytes key() {
  return crypto::from_hex("000102030405060708090a0b0c0d0e0f");
}

struct Rig {
  attest::ProverDevice prover;
  attest::Verifier verifier;
  ShardProfile profile;

  explicit Rig(const attest::ProverConfig& config)
      : prover(config, key(), crypto::from_string("prof-test-app")),
        verifier(key(),
                 attest::Verifier::Config{config.mac_alg, config.scheme,
                                          config.authenticate_requests,
                                          {}},
                 crypto::from_string("prof-test-vrf")) {
    Observer o;
    o.device_id = 4;
    o.profile = &profile;
    prover.set_observer(o);
  }

  std::uint64_t phase_cycles(Phase p) const {
    return profile.devices().at(4)[static_cast<std::size_t>(p)].cycles;
  }
};

attest::ProverConfig config() {
  attest::ProverConfig c;
  c.scheme = attest::FreshnessScheme::kCounter;
  c.measured_bytes = 2048;
  return c;
}

TEST(ProverPhases, OkRoundPartitionsExactly) {
  Rig rig(config());
  const attest::AttestRequest req = rig.verifier.make_request();
  const attest::AttestOutcome out =
      rig.prover.handle(req, RoundContext{make_round_id(4, 0), 1});
  ASSERT_EQ(out.status, attest::AttestStatus::kOk);

  // The PhaseMs decomposition sums to device_ms exactly.
  EXPECT_DOUBLE_EQ(out.phases.req_auth + out.phases.freshness +
                       out.phases.mem_mac + out.phases.resp_mac,
                   out.device_ms);

  // And the recorded cycle partition sums to cycles(device_ms) exactly.
  const auto& tm = rig.prover.timing_model();
  const std::uint64_t total = tm.cycles(out.device_ms);
  std::uint64_t attributed = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    attributed += rig.phase_cycles(static_cast<Phase>(p));
  }
  EXPECT_EQ(attributed, total);
  // mem_mac dominates (the ~754 ms headline scaled to 2 KB).
  EXPECT_GT(rig.phase_cycles(Phase::kMemMac),
            rig.phase_cycles(Phase::kReqAuth));
  EXPECT_GT(rig.phase_cycles(Phase::kRespMac), 0u);
  EXPECT_EQ(rig.phase_cycles(Phase::kOther), 0u);
  // Named phases cover >= 95% of total round cycles (acceptance gate).
  const std::uint64_t other = rig.phase_cycles(Phase::kOther);
  EXPECT_LE(other * 100, total * 5);
}

TEST(ProverPhases, RejectsChargeAuthenticationOnly) {
  Rig rig(config());
  attest::AttestRequest forged = rig.verifier.make_request();
  forged.mac.assign(forged.mac.size(), 0x00);
  const attest::AttestOutcome out =
      rig.prover.handle(forged, RoundContext{make_round_id(4, 1), 1});
  ASSERT_EQ(out.status, attest::AttestStatus::kBadRequestMac);
  const auto& tm = rig.prover.timing_model();
  EXPECT_EQ(rig.phase_cycles(Phase::kReqAuth), tm.cycles(out.device_ms));
  EXPECT_EQ(rig.phase_cycles(Phase::kMemMac), 0u);
  EXPECT_EQ(rig.phase_cycles(Phase::kRespMac), 0u);
}

TEST(ProverPhases, RetryAttemptsChargeRetryOverhead) {
  Rig rig(config());
  const attest::AttestRequest req = rig.verifier.make_request();
  const attest::AttestOutcome out =
      rig.prover.handle(req, RoundContext{make_round_id(4, 2), 2});
  ASSERT_EQ(out.status, attest::AttestStatus::kOk);
  const auto& tm = rig.prover.timing_model();
  // The whole handling cost of attempt 2 is retry amplification.
  EXPECT_EQ(rig.phase_cycles(Phase::kRetryOverhead),
            tm.cycles(out.device_ms));
  EXPECT_EQ(rig.phase_cycles(Phase::kMemMac), 0u);
}

TEST(ProverPhases, ProfileOnlyObserverIsEnabledAndInert) {
  // A profile-only observer must count as enabled()...
  Observer o;
  ShardProfile profile;
  o.profile = &profile;
  EXPECT_TRUE(o.enabled());
  // ...and must not change device behavior.
  attest::ProverDevice bare(config(), key(),
                            crypto::from_string("prof-test-app"));
  Rig rig(config());
  const attest::AttestRequest a = rig.verifier.make_request();
  const attest::AttestOutcome oa = rig.prover.handle(a, RoundContext{1, 1});
  const attest::AttestOutcome ob = bare.handle(a);
  EXPECT_EQ(oa.status, ob.status);
  EXPECT_DOUBLE_EQ(oa.device_ms, ob.device_ms);
  EXPECT_EQ(oa.response, ob.response);
}

}  // namespace
}  // namespace ratt::obs::prof
