// Sec. 3.1 reproduction: the prover-side cost of a full-memory MAC.
//
// The paper's headline: hashing 512 KB of RAM at 24 MHz costs
// (512 KB / 64 B) * 0.092 ms + 0.340 ms = 754.004 ms. (The paper prints
// 754.032 via a typo'd formula; see EXPERIMENTS.md.) The sweep shows the
// linear growth and the verifier/prover asymmetry that makes attestation
// a DoS vector.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "ratt/crypto/hmac.hpp"
#include "ratt/crypto/mac.hpp"
#include "ratt/crypto/sha1.hpp"
#include "ratt/hw/mcu.hpp"
#include "ratt/timing/profiles.hpp"

namespace {

using namespace ratt;  // NOLINT
using crypto::Bytes;

void print_device_model_sweep() {
  const timing::DeviceTimingModel model;  // 24 MHz
  std::printf(
      "=== Sec. 3.1: full-memory MAC cost on the prover (device model, "
      "24 MHz) ===\n\n");
  std::printf("  %10s  %14s  %22s\n", "memory", "HMAC-SHA1 (ms)",
              "vs request auth (x)");
  const double request_ms =
      model.request_auth_ms(crypto::MacAlgorithm::kHmacSha1);
  for (std::size_t kb : {4, 16, 64, 128, 256, 512}) {
    const double ms = model.memory_attestation_ms(
        crypto::MacAlgorithm::kHmacSha1, kb * 1024);
    std::printf("  %8zu KB  %14.3f  %22.1f\n", kb, ms, ms / request_ms);
  }
  std::printf(
      "\n  512 KB -> %.3f ms: one gratuitous request steals ~3/4 s of "
      "prover time\n  (paper: 754.032 ms via a formula typo; constants "
      "give 754.004 ms).\n",
      model.memory_attestation_ms(crypto::MacAlgorithm::kHmacSha1,
                                  512 * 1024));
  std::printf(
      "  The verifier pays one 19-byte MAC (%.3f ms equivalent): a "
      "%.0fx asymmetry.\n\n",
      request_ms,
      model.memory_attestation_ms(crypto::MacAlgorithm::kHmacSha1,
                                  512 * 1024) /
          request_ms);
  std::printf(
      "=== Cross-platform: full-RAM MAC per device profile ===\n\n");
  std::printf("  %-24s %-10s %-10s %-18s\n", "profile", "clock",
              "RAM", "full-RAM MAC (ms)");
  for (const auto& profile : timing::all_profiles()) {
    const auto m = profile.timing_model();
    std::printf("  %-24s %-10.0f %-10zu %-18.3f\n", profile.name.c_str(),
                profile.clock_hz / 1e6, profile.ram_bytes / 1024,
                m.memory_attestation_ms(crypto::MacAlgorithm::kHmacSha1,
                                        profile.ram_bytes));
  }
  std::printf(
      "  (MHz / KB columns; the asymmetry vs one request MAC holds on "
      "every platform.)\n\n");

}

// --- Simulated-prover section: the measurement loop as Code_Attest runs
// it, i.e. every byte fetched through MemoryBus + EA-MPU. Compares the
// window-coalesced read_block against a per-byte read8 loop
// (docs/PERFORMANCE.md); both stream the MAC in 4 KB chunks, so the
// delta isolates the bus. ---

struct SimResult {
  std::size_t bytes = 0;
  std::size_t rules = 0;
  double bus_bulk_ms = 0.0;     // bus transfer only
  double bus_perbyte_ms = 0.0;
  double bus_speedup = 0.0;     // what the window-coalescing buys
  double e2e_bulk_ms = 0.0;     // transfer + streaming HMAC-SHA1
  double e2e_perbyte_ms = 0.0;
  double e2e_speedup = 0.0;     // bounded by the MAC's share of the pass
};

// One full measurement pass: streaming HMAC-SHA1 over challenge ||
// freshness || `range`, read through the bus in 4 KB chunks from the
// trust anchor's PC. `mac == nullptr` times the bus transfer alone.
// `bulk` reads each chunk with one read_block; otherwise a read8 loop
// fills it — the per-byte reference the speedup is measured against.
void measurement_pass(hw::Mcu& mcu, bool bulk, crypto::Mac* mac,
                      const hw::AddrRange& range, Bytes& scratch) {
  const hw::AccessContext ctx{0x00000000};  // Code_Attest's region
  if (mac != nullptr) {
    mac->init(16 + range.size());
    std::uint8_t head[16] = {0x42};
    mac->update(crypto::ByteView(head, 16));
  }
  for (std::size_t off = 0; off < range.size();) {
    const std::size_t n = std::min<std::size_t>(4096, range.size() - off);
    const hw::Addr chunk = range.begin + static_cast<hw::Addr>(off);
    hw::BusStatus status = hw::BusStatus::kOk;
    if (bulk) {
      status = mcu.bus().read_block(
          ctx, chunk, std::span<std::uint8_t>(scratch.data(), n));
    } else {
      for (std::size_t i = 0; i < n && status == hw::BusStatus::kOk; ++i) {
        status = mcu.bus().read8(ctx, chunk + static_cast<hw::Addr>(i),
                                 scratch[i]);
      }
    }
    if (status != hw::BusStatus::kOk) {
      std::fprintf(stderr, "measurement pass faulted\n");
      std::exit(1);
    }
    if (mac != nullptr) {
      mac->update(crypto::ByteView(scratch.data(), n));
    } else {
      benchmark::DoNotOptimize(scratch.data());
    }
    off += n;
  }
  if (mac != nullptr) benchmark::DoNotOptimize(mac->finish());
}

SimResult run_sim_section() {
  hw::Mcu mcu;
  const hw::AddrRange measured = mcu.layout().ram;  // the full 512 KB
  // A realistic rule set: key + counter + nonce store + services state,
  // so the per-byte path pays O(rules) on every one of the 512 Ki bytes.
  const hw::AddrRange anchor_code{0x00000000, 0x00001000};
  std::size_t next = 0;
  const auto add_rule = [&](hw::Addr begin, hw::Addr end, const char* label) {
    hw::EampuRule rule;
    rule.code = anchor_code;
    rule.data = hw::AddrRange{begin, end};
    rule.allow_read = true;
    rule.allow_write = true;
    rule.active = true;
    rule.label = label;
    mcu.mpu().set_rule(next++, rule);
  };
  add_rule(0x00007000, 0x00007010, "k-attest");
  add_rule(0x00100100, 0x00100110, "counter-r");
  add_rule(0x00100200, 0x00100290, "nonce-store");
  add_rule(0x00100120, 0x00100130, "services-state");
  mcu.mpu().lock();

  const Bytes key = crypto::from_hex("000102030405060708090a0b0c0d0e0f");
  const auto mac = crypto::make_mac(crypto::MacAlgorithm::kHmacSha1, key);
  Bytes scratch(4096);

  const auto time_passes = [&](bool bulk, crypto::Mac* m, int passes) {
    measurement_pass(mcu, bulk, m, measured, scratch);  // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < passes; ++i) {
      measurement_pass(mcu, bulk, m, measured, scratch);
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count() /
           passes;
  };

  SimResult r;
  r.bytes = measured.size();
  r.rules = mcu.mpu().active_rules();
  r.bus_bulk_ms = time_passes(/*bulk=*/true, nullptr, 50);
  r.bus_perbyte_ms = time_passes(/*bulk=*/false, nullptr, 3);
  r.bus_speedup = r.bus_perbyte_ms / r.bus_bulk_ms;
  r.e2e_bulk_ms = time_passes(/*bulk=*/true, mac.get(), 20);
  r.e2e_perbyte_ms = time_passes(/*bulk=*/false, mac.get(), 3);
  r.e2e_speedup = r.e2e_perbyte_ms / r.e2e_bulk_ms;

  std::printf(
      "=== Simulated prover: 512 KB measurement through MemoryBus + "
      "EA-MPU ===\n\n");
  std::printf("  %-34s %14s %14s\n", "path (host ms/pass)", "bus only",
              "bus + HMAC");
  std::printf("  %-34s %14.3f %14.3f\n", "per-byte (reference)",
              r.bus_perbyte_ms, r.e2e_perbyte_ms);
  std::printf("  %-34s %14.3f %14.3f\n", "bulk (window-coalesced)",
              r.bus_bulk_ms, r.e2e_bulk_ms);
  std::printf("  %-34s %13.1fx %13.1fx\n", "speedup", r.bus_speedup,
              r.e2e_speedup);
  std::printf(
      "\n  (%zu active EA-MPU rules; both paths stream the MAC in 4 KB "
      "chunks. The\n  bus-only column is what window coalescing buys: "
      "O(regions) EA-MPU checks +\n  memcpy instead of O(bytes x rules). "
      "End-to-end is MAC-bound once the bus\n  is out of the way.)\n\n",
      r.rules);
  return r;
}

void write_json(const std::string& path, const SimResult& sim) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open json file: %s\n", path.c_str());
    std::exit(2);
  }
  const timing::DeviceTimingModel model;
  out << "{\n"
      << "  \"bench\": \"bench_memory_mac\",\n"
      << "  \"device_model\": {\n"
      << "    \"full_ram_hmac_sha1_ms\": "
      << model.memory_attestation_ms(crypto::MacAlgorithm::kHmacSha1,
                                     512 * 1024)
      << "\n  },\n"
      << "  \"sim\": {\n"
      << "    \"bytes\": " << sim.bytes << ",\n"
      << "    \"active_rules\": " << sim.rules << ",\n"
      << "    \"bus_bulk_ms\": " << sim.bus_bulk_ms << ",\n"
      << "    \"bus_perbyte_ms\": " << sim.bus_perbyte_ms << ",\n"
      << "    \"bus_speedup\": " << sim.bus_speedup << ",\n"
      << "    \"e2e_bulk_ms\": " << sim.e2e_bulk_ms << ",\n"
      << "    \"e2e_perbyte_ms\": " << sim.e2e_perbyte_ms << ",\n"
      << "    \"e2e_speedup\": " << sim.e2e_speedup << "\n"
      << "  }\n"
      << "}\n";
}

void BM_HmacSha1_OverMemory(benchmark::State& state) {
  const Bytes key = crypto::from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes memory(static_cast<std::size_t>(state.range(0)), 0x5a);
  crypto::Hmac<crypto::Sha1> hmac(key);
  for (auto _ : state) {
    hmac.reset();
    hmac.update(memory);
    benchmark::DoNotOptimize(hmac.finish());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha1_OverMemory)
    ->Arg(4 * 1024)
    ->Arg(16 * 1024)
    ->Arg(64 * 1024)
    ->Arg(128 * 1024)
    ->Arg(256 * 1024)
    ->Arg(512 * 1024);

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark sees (and rejects) them.
  std::string json_path;
  double check_speedup = 0.0;
  bool sim_only = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--check-speedup=", 16) == 0) {
      check_speedup = std::strtod(argv[i] + 16, nullptr);
    } else if (std::strcmp(argv[i], "--sim-only") == 0) {
      sim_only = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());

  print_device_model_sweep();
  const SimResult sim = run_sim_section();
  if (!json_path.empty()) write_json(json_path, sim);
  if (check_speedup > 0.0 && sim.bus_speedup < check_speedup) {
    std::fprintf(stderr,
                 "FAIL: bulk-bus speedup %.1fx below required %.1fx\n",
                 sim.bus_speedup, check_speedup);
    return 1;
  }
  if (sim_only) return 0;

  std::printf("=== Host measurements of HMAC-SHA1 over memory follow ===\n\n");
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
