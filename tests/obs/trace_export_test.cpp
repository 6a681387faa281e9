// The trace export path against reference models: the ring-direct merge
// against a snapshot + stable_sort merge, write_jsonl's block writer
// against per-record to_jsonl lines, to_jsonl against a string-append
// formatter, and the ring's on-demand block storage.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include "ratt/obs/metrics.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/sim/swarm.hpp"

namespace ratt::obs {
namespace {

// --- Reference models --------------------------------------------------

// Concatenate the streams and stable-sort on (sim_time_ms, device_id):
// ties keep their stream order.
std::vector<TraceRecord> reference_merge(
    std::vector<std::vector<TraceRecord>> shards) {
  std::vector<TraceRecord> out;
  for (auto& shard : shards) {
    for (auto& rec : shard) out.push_back(std::move(rec));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.sim_time_ms != b.sim_time_ms) {
                       return a.sim_time_ms < b.sim_time_ms;
                     }
                     return a.device_id < b.device_id;
                   });
  return out;
}

std::vector<TraceRecord> reference_merge(
    const std::vector<RingRecorder>& rings) {
  std::vector<std::vector<TraceRecord>> snapshots;
  for (const auto& ring : rings) snapshots.push_back(ring.snapshot());
  return reference_merge(std::move(snapshots));
}

std::vector<TraceRecord> ring_merge(const std::vector<RingRecorder>& rings) {
  std::vector<const RingRecorder*> ptrs;
  for (const auto& ring : rings) ptrs.push_back(&ring);
  return merge_traces(ptrs);
}

void ref_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void ref_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void ref_string(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// One string append per field, in schema order.
std::string reference_to_jsonl(const TraceRecord& rec) {
  std::string out = "{\"sim_time_ms\":";
  ref_double(out, rec.sim_time_ms);
  out += ",\"device_id\":";
  ref_u64(out, rec.device_id);
  out += ",\"kind\":";
  ref_string(out, rec.kind);
  out += ",\"outcome\":";
  ref_string(out, rec.outcome);
  out += ",\"prover_ms\":";
  ref_double(out, rec.prover_ms);
  out += ",\"verifier_ms\":";
  ref_double(out, rec.verifier_ms);
  out += ",\"bytes\":";
  ref_u64(out, rec.bytes);
  out += ",\"energy_mj\":";
  ref_double(out, rec.energy_mj);
  out += ",\"power_mw\":";
  ref_double(out, rec.power_mw);
  out += ",\"round_id\":";
  ref_u64(out, rec.round_id);
  out += ",\"attempt\":";
  ref_u64(out, rec.attempt);
  out += '}';
  return out;
}

// --- Fixtures ----------------------------------------------------------

// Coarse times and a handful of devices per shard, so (time, device)
// ties are common; `seq` lands in prover_ms to tell tied records apart.
TraceRecord random_record(std::mt19937_64& rng, std::uint64_t device,
                          std::uint64_t seq) {
  static const char* const kKinds[] = {"prover.handle", "verifier.round",
                                       "net.retry", "dos.request"};
  static const char* const kOutcomes[] = {"ok", "not-fresh", "missing",
                                          "bad-mac"};
  TraceRecord r;
  r.sim_time_ms = static_cast<double>(rng() % 16) * 0.5;
  r.device_id = device;
  r.kind = kKinds[rng() % 4];
  r.outcome = kOutcomes[rng() % 4];
  r.prover_ms = static_cast<double>(seq);
  r.bytes = rng() % 100;
  r.round_id = rng();
  r.attempt = static_cast<std::uint32_t>(rng() % 3);
  return r;
}

// `shards` rings of `capacity`, device d recorded only in ring d % shards.
std::vector<RingRecorder> sharded_rings(std::size_t shards,
                                        std::size_t capacity,
                                        std::size_t records,
                                        std::uint64_t seed) {
  std::vector<RingRecorder> rings;
  for (std::size_t s = 0; s < shards; ++s) rings.emplace_back(capacity);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < records; ++i) {
    const std::uint64_t device = rng() % (3 * shards);
    rings[device % shards].record(random_record(rng, device, i));
  }
  return rings;
}

// --- Merge -------------------------------------------------------------

TEST(TraceMerge, RingMergeMatchesReferenceUnderCapacity) {
  const auto rings = sharded_rings(4, 4096, 3000, 1);
  const auto merged = ring_merge(rings);
  ASSERT_EQ(merged.size(), 3000u);
  EXPECT_EQ(merged, reference_merge(rings));
}

TEST(TraceMerge, RingMergeMatchesReferenceOnWrappedRings) {
  // 37 is prime, so each ring's head lands mid-ring, and 1500 records
  // make every ring drop.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto rings = sharded_rings(5, 37, 1500, seed);
    for (const auto& ring : rings) ASSERT_GT(ring.dropped(), 0u);
    EXPECT_EQ(ring_merge(rings), reference_merge(rings)) << "seed " << seed;
  }
}

TEST(TraceMerge, RingMergeMatchesReferenceAcrossBlockBoundaries) {
  // Larger than one storage block and wrapped, so the oldest-first walk
  // crosses block edges on both sides of the head.
  const auto rings = sharded_rings(3, 2500, 9000, 42);
  EXPECT_EQ(ring_merge(rings), reference_merge(rings));
}

TEST(TraceMerge, TiesWithinOneShardKeepRecordOrder) {
  std::vector<RingRecorder> rings;
  rings.emplace_back(16);
  rings.emplace_back(16);
  for (int i = 0; i < 6; ++i) {
    TraceRecord r;
    r.sim_time_ms = 5.0;
    r.device_id = 2;
    r.kind = "k" + std::to_string(i);
    rings[0].record(r);
  }
  TraceRecord other;
  other.sim_time_ms = 5.0;
  other.device_id = 1;
  rings[1].record(other);
  const auto merged = ring_merge(rings);
  ASSERT_EQ(merged.size(), 7u);
  EXPECT_EQ(merged[0].device_id, 1u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(merged[i + 1].kind, "k" + std::to_string(i));
  }
  EXPECT_EQ(merged, reference_merge(rings));
}

TEST(TraceMerge, EmptyRings) {
  std::vector<RingRecorder> rings;
  for (int i = 0; i < 3; ++i) rings.emplace_back(8);
  EXPECT_TRUE(ring_merge(rings).empty());
  EXPECT_TRUE(merge_traces(std::span<const RingRecorder* const>{}).empty());
  TraceRecord r;
  r.sim_time_ms = 1.0;
  rings[1].record(r);
  const auto merged = ring_merge(rings);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged, reference_merge(rings));
}

TEST(TraceMerge, CapacityZeroAndOne) {
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1}}) {
    const auto rings = sharded_rings(3, capacity, 50, capacity + 7);
    for (const auto& ring : rings) {
      EXPECT_EQ(ring.capacity(), 1u);
      EXPECT_EQ(ring.size(), 1u);
      EXPECT_EQ(ring.allocated(), 1u);
    }
    const auto merged = ring_merge(rings);
    EXPECT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged, reference_merge(rings));
  }
}

TEST(TraceMerge, DeviceSpreadOverSeveralStreams) {
  // A single-sink layout split after the fact: one device's records land
  // in several streams, so ties across streams must follow stream order.
  std::mt19937_64 rng(9);
  std::vector<std::vector<TraceRecord>> streams(4);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::uint64_t device = rng() % 5;
    streams[rng() % 4].push_back(random_record(rng, device, i));
  }
  std::vector<RingRecorder> rings;
  for (const auto& stream : streams) {
    rings.emplace_back(stream.size());
    for (const auto& rec : stream) rings.back().record(rec);
  }
  const auto reference = reference_merge(streams);
  EXPECT_EQ(merge_traces(streams), reference);
  EXPECT_EQ(ring_merge(rings), reference);
}

TEST(TraceMerge, SwarmMergeMatchesReferenceOverShardRings) {
  sim::SwarmConfig config;
  config.device_count = 24;
  config.shard_count = 4;
  config.prover.scheme = attest::FreshnessScheme::kCounter;
  config.prover.authenticate_requests = true;
  config.prover.measured_bytes = 256;
  config.attest_period_ms = 100.0;
  config.stagger_ms = 7.0;
  for (const std::size_t capacity : {std::size_t{1} << 16, std::size_t{50}}) {
    sim::Swarm swarm(config, crypto::from_string("export-seed"));
    Registry registry;
    swarm.attach_sharded_observer(&registry, capacity);
    swarm.run_parallel(800.0, 2);
    std::vector<std::vector<TraceRecord>> snapshots;
    for (std::size_t s = 0; s < swarm.shard_count(); ++s) {
      snapshots.push_back(swarm.shard_ring(s)->snapshot());
    }
    const auto merged = swarm.merged_trace();
    EXPECT_FALSE(merged.empty());
    EXPECT_EQ(merged, reference_merge(std::move(snapshots)))
        << "capacity " << capacity;
  }
}

// --- JSONL -------------------------------------------------------------

std::vector<TraceRecord> hostile_records() {
  std::vector<TraceRecord> out;
  const double doubles[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      1e300,
      -1.7976931348623157e308,
      0.1 + 0.2,
      94.6,
      1.0 / 3.0,
      123456789012345680.0,
  };
  std::string all_bytes;
  for (int c = 1; c < 256; ++c) all_bytes += static_cast<char>(c);
  const std::string labels[] = {
      "",
      "prover.handle",
      "a\"b\\c",
      "\\\\\"\"",
      std::string("nul") + '\0' + "inside",
      "\n\r\t\b\f\x01\x1f\x7f",
      all_bytes,
      std::string(70000, '"'),    // escapes to 140 KB: beyond one block
      std::string(100000, 'x'),   // plain, beyond one block
      std::string(20000, '\x02'), // escapes to 6x its size
  };
  std::uint64_t i = 0;
  for (const double d : doubles) {
    for (const auto& label : labels) {
      TraceRecord r;
      r.sim_time_ms = d;
      r.device_id = i * 0x9e3779b97f4a7c15ull;
      r.kind = label;
      r.outcome = labels[i % std::size(labels)];
      r.prover_ms = -d;
      r.verifier_ms = d / 3.0;
      r.bytes = std::numeric_limits<std::uint64_t>::max() - i;
      r.energy_mj = d * 1e-3;
      r.power_mw = std::sqrt(std::fabs(d));
      r.round_id = i;
      r.attempt = std::numeric_limits<std::uint32_t>::max() -
                  static_cast<std::uint32_t>(i);
      out.push_back(std::move(r));
      ++i;
    }
  }
  return out;
}

TEST(JsonlWriter, ToJsonlMatchesReferenceFormatter) {
  for (const auto& rec : hostile_records()) {
    ASSERT_EQ(to_jsonl(rec), reference_to_jsonl(rec))
        << "device " << rec.device_id;
  }
}

TEST(JsonlWriter, EqualsConcatenatedLinesOnHostileRecords) {
  const auto records = hostile_records();
  std::string expected;
  for (const auto& rec : records) expected += to_jsonl(rec) + '\n';
  std::ostringstream out;
  write_jsonl(out, records);
  EXPECT_EQ(out.str(), expected);
}

TEST(JsonlWriter, EqualsConcatenatedLinesAcrossManyBlocks) {
  // ~20k short lines: the block buffer is flushed many times, and a line
  // must never be split or duplicated at a flush.
  std::mt19937_64 rng(3);
  std::vector<TraceRecord> records;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    TraceRecord r = random_record(rng, rng() % 1000, i);
    r.energy_mj = std::ldexp(static_cast<double>(rng() % 1000003),
                             static_cast<int>(rng() % 200) - 100);
    records.push_back(std::move(r));
  }
  std::string expected;
  for (const auto& rec : records) expected += to_jsonl(rec) + '\n';
  std::ostringstream out;
  write_jsonl(out, records);
  EXPECT_EQ(out.str(), expected);
}

TEST(JsonlWriter, EmptyInputWritesNothing) {
  std::ostringstream out;
  write_jsonl(out, std::span<const TraceRecord>{});
  EXPECT_TRUE(out.str().empty());
}

// --- Ring storage ------------------------------------------------------

TEST(RingStorage, GrowsWithRecordsHeldUntilWrap) {
  RingRecorder ring(1 << 16);
  EXPECT_EQ(ring.allocated(), 0u);
  TraceRecord r;
  std::size_t held = 0;
  for (const std::size_t target : {1u, 1000u, 1025u, 5000u, 40000u}) {
    for (; held < target; ++held) ring.record(r);
    EXPECT_GE(ring.allocated(), held);
    EXPECT_LT(ring.allocated(), held + 1024) << held << " records held";
  }
  for (; held < 3 * (1u << 16); ++held) ring.record(r);
  EXPECT_EQ(ring.allocated(), ring.capacity());
  EXPECT_EQ(ring.size(), ring.capacity());
  EXPECT_EQ(ring.dropped(), held - ring.capacity());
}

TEST(RingStorage, PartialLastBlockStopsAtCapacity) {
  RingRecorder ring(1500);
  TraceRecord r;
  for (int i = 0; i < 4000; ++i) ring.record(r);
  EXPECT_EQ(ring.allocated(), 1500u);
}

TEST(RingStorage, RecordedEntriesNeverMoveBeforeWrap) {
  RingRecorder ring(5000);
  TraceRecord r;
  r.kind = "first";
  ring.record(r);
  const TraceRecord* first = nullptr;
  ring.for_each([&first](const TraceRecord& rec) {
    if (first == nullptr) first = &rec;
  });
  r.kind = "later";
  for (int i = 1; i < 5000; ++i) ring.record(r);
  const TraceRecord* oldest = nullptr;
  ring.for_each([&oldest](const TraceRecord& rec) {
    if (oldest == nullptr) oldest = &rec;
  });
  EXPECT_EQ(oldest, first);
  EXPECT_EQ(oldest->kind, "first");
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingStorage, DroppedCounterCountsEvictions) {
  Registry registry;
  Counter& dropped = registry.counter("obs.trace.dropped");
  RingRecorder ring(3);
  ring.set_dropped_counter(&dropped);
  TraceRecord r;
  for (int i = 0; i < 10; ++i) ring.record(r);
  EXPECT_EQ(dropped.count(), 7u);
  EXPECT_EQ(ring.dropped(), 7u);
}

}  // namespace
}  // namespace ratt::obs
