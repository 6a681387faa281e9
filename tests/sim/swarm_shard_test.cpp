// Sharded Swarm execution: the fleet partitioned across per-shard event
// queues and drained on worker threads must be indistinguishable — in
// keys, reports, and exported traces, byte for byte — from the legacy
// single-queue serial run for the same seed.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ratt/sim/fleet_health.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::sim {
namespace {

using attest::FreshnessScheme;

SwarmConfig fleet(std::size_t devices, std::size_t shards) {
  SwarmConfig config;
  config.device_count = devices;
  config.shard_count = shards;
  config.prover.scheme = FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 512;
  config.attest_period_ms = 100.0;
  config.stagger_ms = 7.0;
  return config;
}

TEST(SwarmShard, PlanCoversEveryDeviceOnce) {
  Swarm swarm(fleet(10, 4), crypto::from_string("shard-seed"));
  EXPECT_EQ(swarm.size(), 10u);
  EXPECT_EQ(swarm.shard_count(), 4u);
  // Every device resolves to exactly one queue; contiguous blocks mean
  // neighbors mostly share one.
  for (std::size_t i = 0; i < swarm.size(); ++i) {
    EXPECT_NO_THROW(swarm.queue_of(i));
  }
}

TEST(SwarmShard, ShardCountClampedToDevices) {
  Swarm swarm(fleet(3, 64), crypto::from_string("shard-seed"));
  EXPECT_EQ(swarm.shard_count(), 3u);
  Swarm zero(fleet(3, 0), crypto::from_string("shard-seed"));
  EXPECT_EQ(zero.shard_count(), 1u);
}

TEST(SwarmShard, LegacyQueueAccessorThrowsWhenSharded) {
  Swarm single(fleet(4, 1), crypto::from_string("shard-seed"));
  EXPECT_NO_THROW(single.queue());
  Swarm sharded(fleet(4, 2), crypto::from_string("shard-seed"));
  EXPECT_THROW(sharded.queue(), std::logic_error);
}

TEST(SwarmShard, KeysIndependentOfShardPlan) {
  // The fleet DRBG draws in global device order, so the shard plan must
  // not perturb per-device keys.
  Swarm one(fleet(8, 1), crypto::from_string("shard-seed"));
  Swarm four(fleet(8, 4), crypto::from_string("shard-seed"));
  Swarm eight(fleet(8, 8), crypto::from_string("shard-seed"));
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(one.device_key(i), four.device_key(i)) << "device " << i;
    EXPECT_EQ(one.device_key(i), eight.device_key(i)) << "device " << i;
  }
}

SwarmReport run_fleet(std::size_t shards, std::size_t threads,
                      std::string* jsonl) {
  Swarm swarm(fleet(8, shards), crypto::from_string("shard-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  const SwarmReport report = swarm.run_parallel(600.0, threads);
  if (jsonl != nullptr) {
    std::ostringstream out;
    obs::write_jsonl(out, swarm.merged_trace());
    *jsonl = out.str();
  }
  return report;
}

TEST(SwarmShard, ReportAndTraceIdenticalAtAnyThreadCount) {
  // The tentpole guarantee: same seed => byte-identical merged output at
  // any thread count, because shard streams are schedule-independent and
  // the merge is canonical.
  std::string jsonl1;
  std::string jsonl2;
  std::string jsonl8;
  const SwarmReport r1 = run_fleet(4, 1, &jsonl1);
  const SwarmReport r2 = run_fleet(4, 2, &jsonl2);
  const SwarmReport r8 = run_fleet(4, 8, &jsonl8);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r8);
  EXPECT_FALSE(jsonl1.empty());
  EXPECT_EQ(jsonl1, jsonl2);
  EXPECT_EQ(jsonl1, jsonl8);
}

TEST(SwarmShard, ReportAndTraceIdenticalAtAnyShardCount) {
  // Stronger: the shard plan itself doesn't show through (rings are large
  // enough that nothing is dropped), so the sharded runs reproduce the
  // legacy single-queue run byte for byte.
  std::string jsonl1;
  std::string jsonl3;
  std::string jsonl8;
  const SwarmReport r1 = run_fleet(1, 1, &jsonl1);
  const SwarmReport r3 = run_fleet(3, 2, &jsonl3);
  const SwarmReport r8 = run_fleet(8, 8, &jsonl8);
  EXPECT_EQ(r1, r3);
  EXPECT_EQ(r1, r8);
  EXPECT_EQ(jsonl1, jsonl3);
  EXPECT_EQ(jsonl1, jsonl8);
}

TEST(SwarmShard, ParallelRunMatchesSerialLegacyRun) {
  // The pre-sharding API (shared registry + one shared sink via
  // attach_observer) still produces the same report when the fleet is
  // driven through run() on one thread.
  Swarm legacy(fleet(6, 1), crypto::from_string("shard-seed"));
  const SwarmReport serial = legacy.run(600.0);
  Swarm sharded(fleet(6, 3), crypto::from_string("shard-seed"));
  const SwarmReport parallel = sharded.run_parallel(600.0, 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.total_valid(), serial.total_sent());
}

TEST(SwarmShard, MergedTraceFeedsFleetHealth) {
  // End-to-end operator path: sharded parallel run -> merged trace ->
  // alert replay -> verdicts. The replay-flooded device is flagged from
  // its own metrics; verdicts are identical at any thread count.
  auto run_once = [](std::size_t threads) {
    Swarm swarm(fleet(6, 3), crypto::from_string("shard-seed"));
    RecordingTap tap;
    swarm.channel(2).set_tap(&tap);
    swarm.session(2).send_request();
    swarm.run_all();

    obs::Registry registry;
    swarm.attach_sharded_observer(&registry);
    if (!tap.recorded_to_prover().empty()) {
      for (int k = 0; k < 24; ++k) {
        swarm.channel(2).inject_to_prover(
            tap.recorded_to_prover()[0].payload, 20.0 + 20.0 * k);
      }
    }
    const SwarmReport report = swarm.run_parallel(600.0, threads);
    obs::ts::AlertConfig alert_config;
    alert_config.device_count = 6;
    return assess_fleet(report, swarm.merged_trace(), alert_config);
  };

  const auto verdicts1 = run_once(1);
  const auto verdicts4 = run_once(4);
  ASSERT_EQ(verdicts1.size(), 6u);
  for (std::size_t i = 0; i < verdicts1.size(); ++i) {
    EXPECT_EQ(verdicts1[i].health, verdicts4[i].health) << "device " << i;
    EXPECT_EQ(verdicts1[i].alerts, verdicts4[i].alerts) << "device " << i;
  }
  EXPECT_GT(verdicts1[2].alerts, 0u) << "flooded device must fire alerts";
  EXPECT_NE(verdicts1[2].health, DeviceHealth::kHealthy);
  // The flood stands out: strictly more alerts than any genuine device
  // (which may trip the rate floor once on its own periodic traffic).
  for (std::size_t i = 0; i < verdicts1.size(); ++i) {
    if (i == 2) continue;
    EXPECT_LT(verdicts1[i].alerts, verdicts1[2].alerts) << "device " << i;
  }
}

// --- Shard-local registries ------------------------------------------------
//
// Under attach_sharded_observer every shard counts into a private Registry
// that every run call folds into the attached one, in shard order, after the
// workers join.

SwarmConfig lossy_fleet() {
  SwarmConfig config = fleet(256, 16);
  config.link = net::lossy10_link();
  config.reliable = true;
  config.share_app_image = true;  // one secure boot, not 256
  return config;
}

std::string sharded_registry_text(std::size_t threads) {
  Swarm swarm(lossy_fleet(), crypto::from_string("registry-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  (void)swarm.run_parallel(2000.0, threads);
  return registry.to_text();
}

TEST(SwarmShardRegistry, TextIdenticalAtAnyThreadCount) {
  // Float sums (prover.busy_ms, energy, latency histogram sums) are added
  // shard by shard in a fixed order, so not even their last digits may
  // follow the thread interleaving.
  const std::string one = sharded_registry_text(1);
  EXPECT_NE(one.find("counter prover.busy_ms"), std::string::npos);
  EXPECT_NE(one.find("counter net.retransmits"), std::string::npos);
  EXPECT_EQ(sharded_registry_text(2), one);
  EXPECT_EQ(sharded_registry_text(8), one);
}

/// Exact equality of everything but floating-point sums, which may differ
/// in their last digits when additions associate differently; those must
/// agree to a relative 1e-12.
void expect_same_tallies(const obs::Registry& got,
                         const obs::Registry& want) {
  const auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
  };
  ASSERT_EQ(got.counters().size(), want.counters().size());
  for (const auto& [name, c] : want.counters()) {
    const obs::Counter* g = got.find_counter(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->count(), c.count()) << name;
    EXPECT_TRUE(near(g->value(), c.value()))
        << name << ": " << g->value() << " vs " << c.value();
  }
  ASSERT_EQ(got.gauges().size(), want.gauges().size());
  for (const auto& [name, gauge] : want.gauges()) {
    const obs::Gauge* g = got.find_gauge(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->sets(), gauge.sets()) << name;
    EXPECT_EQ(g->max(), gauge.max()) << name;
    EXPECT_EQ(g->value(), gauge.value()) << name;
  }
  ASSERT_EQ(got.histograms().size(), want.histograms().size());
  for (const auto& [name, h] : want.histograms()) {
    const obs::Histogram* g = got.find_histogram(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->count(), h.count()) << name;
    EXPECT_EQ(g->buckets(), h.buckets()) << name;
    EXPECT_EQ(g->min(), h.min()) << name;
    EXPECT_EQ(g->max(), h.max()) << name;
    EXPECT_TRUE(near(g->sum(), h.sum()))
        << name << ": " << g->sum() << " vs " << h.sum();
  }
}

TEST(SwarmShardRegistry, FoldMatchesOneSharedRegistry) {
  // The single shared registry of attach_observer, driven on one thread,
  // is the reference: the shard fold must reproduce its counts, buckets,
  // min/max and gauge values (last write = highest shard that set it).
  Swarm shared(lossy_fleet(), crypto::from_string("registry-seed"));
  obs::Registry shared_reg;
  shared.attach_observer(&shared_reg, nullptr);
  (void)shared.run(2000.0);

  Swarm sharded(lossy_fleet(), crypto::from_string("registry-seed"));
  obs::Registry sharded_reg;
  sharded.attach_sharded_observer(&sharded_reg);
  (void)sharded.run_parallel(2000.0, 4);

  // The ring eviction tally is the only instrument the rings add.
  const obs::Counter* dropped = sharded_reg.find_counter("obs.trace.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 0.0);
  (void)shared_reg.counter("obs.trace.dropped");
  expect_same_tallies(sharded_reg, shared_reg);
}

TEST(SwarmShardRegistry, SlicedRunsDoNotDoubleCount) {
  // Every run_until slice folds and resets the shard instruments, so a
  // dashboard-style sliced drain adds up to the straight run.
  Swarm straight(lossy_fleet(), crypto::from_string("registry-seed"));
  obs::Registry straight_reg;
  straight.attach_sharded_observer(&straight_reg);
  const SwarmReport straight_report = straight.run_parallel(2000.0, 2);

  Swarm sliced(lossy_fleet(), crypto::from_string("registry-seed"));
  obs::Registry sliced_reg;
  sliced.attach_sharded_observer(&sliced_reg);
  sliced.schedule(2000.0);
  sliced.run_until(700.0);
  const obs::Counter* valid = sliced_reg.find_counter("session.rounds.valid");
  ASSERT_NE(valid, nullptr);
  const double after_first_slice = valid->value();
  EXPECT_GT(after_first_slice, 0.0);
  sliced.run_until(1300.0);
  sliced.run_until(2000.0);
  EXPECT_EQ(sliced.run_all(), 0u);
  const SwarmReport sliced_report = sliced.report(2000.0);

  EXPECT_EQ(sliced_report, straight_report);
  EXPECT_GT(valid->value(), after_first_slice);
  EXPECT_EQ(valid->value(),
            static_cast<double>(straight_report.total_valid()));
  expect_same_tallies(sliced_reg, straight_reg);
}

TEST(SwarmShardRegistry, UntouchedInstrumentsStayAbsent) {
  // Instruments register lazily: a clean, scalar-MAC fleet never creates
  // the retransmitter or batch counters, in a shard or after the fold.
  SwarmConfig config = fleet(64, 8);
  config.mac_batch = false;
  Swarm swarm(config, crypto::from_string("registry-seed"));
  obs::Registry registry;
  swarm.attach_sharded_observer(&registry);
  (void)swarm.run_parallel(600.0, 4);
  EXPECT_NE(registry.find_counter("prover.busy_ms"), nullptr);
  EXPECT_EQ(registry.find_counter("net.retransmits"), nullptr);
  EXPECT_EQ(registry.find_counter("verifier.batch.fills"), nullptr);
  EXPECT_EQ(registry.find_counter("prover.inc.requests"), nullptr);
  EXPECT_EQ(registry.to_text().find("batch"), std::string::npos);
}

}  // namespace
}  // namespace ratt::sim
