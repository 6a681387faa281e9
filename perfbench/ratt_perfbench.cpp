// ratt_perfbench — the measuring half of the ratt benchmark. run.py
// builds this binary, checks its output against the pinned goldens
// and prints the result line.
//
//   ratt_perfbench --workload NAME --seed N --seconds S --mode e2e|traced
//                  [--spans FILE] [--max-reps N]
//
// Prints one JSON object on stdout. Everything the benchmark generates
// (fleet seed, replay schedule, rewritten pages, sampled devices) is a
// pure function of --seed. See README.md for the workloads, the metric
// map and what the outside-in trace can and cannot see.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ratt/crypto/drbg.hpp"
#include "ratt/crypto/ecdsa.hpp"
#include "ratt/obs/metrics.hpp"
#include "ratt/obs/prof/profile.hpp"
#include "ratt/obs/trace.hpp"
#include "ratt/sim/swarm.hpp"

namespace {

using namespace ratt;  // NOLINT
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workloads. Each is a fixed amount of simulated work (devices x
// horizon); throughput is host work per second at that size. All share
// HMAC-SHA1, counter freshness, authenticated requests, a 125 ms period
// and 16 shards.

constexpr double kPeriodMs = 125.0;
constexpr double kStaggerMs = 37.0;
constexpr std::size_t kShards = 16;
constexpr std::size_t kPageBytes = attest::CodeAttest::kPageBytes;
constexpr double kReplayGapMs = 50.0;  // ~20 replays per simulated second

struct Workload {
  const char* name;
  std::size_t devices;
  std::size_t measured_bytes;
  double horizon_ms;
  bool shared_image;
  bool rings;        // the program's per-shard trace rings
  bool hostile;      // lossy10 + reliable rounds + replay flood
  bool incremental;  // incremental rounds + page rewrites
  bool multi_thread; // drained on min(2, nproc) threads (else 1)
};

// clang-format off
constexpr Workload kWorkloads[] = {
  // name               devices  measured    horizon shared rings  hostile incr   mt
  {"fleet_small",       16384,   64,         1000.0,  true,  true,  false,  false, true},
  {"fleet_mac",         1024,    16 * 1024,  2000.0, true,  false, false,  false, false},
  {"hostile_link",      256,     16 * 1024,  4000.0, false, true,  true,   false, false},
  {"incremental_dirty", 256,     448 * 1024, 16000.0, true,  false, false,  true,  false},
};
// clang-format on

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Two threads, not one per core: on a shared host a drain that fills
// every core is slowed by any other load on any of them, and its run-to-
// run spread then measures that load rather than the program.
std::size_t drain_threads(const Workload& w) {
  if (!w.multi_thread) return 1;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(2, hw);
}

// ---------------------------------------------------------------------
// Seeded inputs.

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic draw for (seed, stream, a, b).
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
                   std::uint64_t b = 0) {
  return splitmix64(splitmix64(splitmix64(seed ^ (stream << 56)) ^ a) ^ b);
}

enum Stream : std::uint64_t {
  kReplayPhase = 1,
  kDirtyPage = 2,
  kSample = 3,
  kPairSeed = 4,
};

std::string fleet_seed(std::uint64_t seed) {
  return "ratt-perfbench-fleet-" + std::to_string(seed);
}

double replay_phase_ms(std::uint64_t seed, std::size_t device) {
  return static_cast<double>(draw(seed, kReplayPhase, device) % 50000) /
         1000.0;
}

std::size_t dirty_page(std::uint64_t seed, std::size_t device,
                       std::uint64_t k, std::size_t pages) {
  return static_cast<std::size_t>(draw(seed, kDirtyPage, device, k) % pages);
}

/// Same wrap the Swarm applies to its per-device stagger.
double stagger_offset(std::size_t device) {
  return std::fmod(kStaggerMs * static_cast<double>(device), kPeriodMs);
}

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 1469598103934665603ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---------------------------------------------------------------------
// Host measurement helpers.

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Outside-in spans: the benchmark times its own calls into each layer's
// public functions. Kept in memory, written out at the end.

class Spans {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index, -1 = root
    std::uint64_t round;  // shared by the spans of one round, 0 = none
  };

  class Scope {
   public:
    Scope(Spans* spans, const char* name, std::uint64_t round = 0)
        : spans_(spans) {
      if (spans_ != nullptr) index_ = spans_->open(name, round);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::int64_t index_ = -1;
  };

  Spans() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0 && s.end_ns >= 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e9);
      }
    }
    return out;
  }
  /// Mean duration (seconds) with the slowest 1% dropped: amortized
  /// costs (a lookahead wave every few calls) stay in, preemption spikes
  /// on a shared host do not.
  double mean_s(const char* name) const {
    std::vector<double> d = durations(name);
    if (d.empty()) return 0.0;
    std::sort(d.begin(), d.end());
    d.resize(d.size() - d.size() / 100);
    double sum = 0.0;
    for (const double x : d) sum += x;
    return sum / static_cast<double>(d.size());
  }
  double total_s(const char* name) const {
    double t = 0.0;
    for (const double d : durations(name)) t += d;
    return t;
  }

  /// One JSON object per span; `rep` labels which instance it belongs to.
  void write_jsonl(std::ostream& out, const char* rep) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"rep\":\"" << rep << "\",\"id\":" << i
          << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"round\":\"" << hex64(s.round)
          << "\"}\n";
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  std::int64_t open(const char* name, std::uint64_t round) {
    spans_.push_back(Span{name, now_ns(), -1, current_, round});
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
  }
  void close(std::int64_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int64_t current_ = -1;
};

// ---------------------------------------------------------------------
// Minimal ordered JSON object writer (no JSON library in the image).

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void num(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void boolean(const std::string& key, bool v) {
    raw(key, v ? "true" : "false");
  }
  void obj(const std::string& key, const JsonObject& v) { raw(key, v.text()); }
  void arr(const std::string& key, const std::vector<JsonObject>& items) {
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) s += ",";
      s += items[i].text();
    }
    raw(key, s + "]");
  }
  void raw(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, value);
  }
  std::string text() const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) s += ",";
      s += "\"" + fields_[i].first + "\":" + fields_[i].second;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

double counter(const obs::Registry& registry, const char* name) {
  const obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0.0 : c->value();
}

// ---------------------------------------------------------------------
// Digests of the deterministic device-model output.

std::string report_digest(const sim::SwarmReport& report) {
  std::string s;
  char buf[96];
  std::snprintf(buf, sizeof buf, "h=%a l=%zu n=%zu\n", report.horizon_ms,
                report.events_leftover, report.devices.size());
  s += buf;
  for (const sim::SwarmDeviceReport& d : report.devices) {
    const sim::AttestationSession::Stats& st = d.stats;
    const std::uint64_t fields[] = {
        st.requests_sent,        st.requests_delivered,
        st.responses_received,   st.responses_valid,
        st.responses_invalid,    st.prover_rejects,
        st.responses_missing,    st.rejects_bad_mac,
        st.rejects_not_fresh,    st.rejects_rate_limited,
        st.rejects_other,        st.requests_malformed,
        st.responses_malformed,  st.rounds_started,
        st.retransmits,          st.timeouts,
        st.duplicate_responses,  st.rounds_unreachable,
        st.inc_rounds,           st.inc_full_fallbacks,
        st.inc_pages_refreshed};
    s += std::to_string(d.device);
    for (const std::uint64_t f : fields) {
      s += ' ';
      s += std::to_string(f);
    }
    std::snprintf(buf, sizeof buf, " %a %a %a\n", st.prover_attest_ms,
                  d.attest_device_ms, d.duty_fraction);
    s += buf;
  }
  return hex64(fnv1a(s));
}

struct RoundCounts {
  std::uint64_t started = 0;  // rounds opened (reliable) / requests sent
  std::uint64_t sent = 0;     // requests on the wire, incl. retries
  std::uint64_t valid = 0;
  std::uint64_t inc_rounds = 0;
  std::uint64_t inc_fallbacks = 0;
  std::uint64_t inc_pages = 0;
  std::uint64_t inc_devices = 0;  // devices that ran incremental rounds
};

RoundCounts count_rounds(const sim::SwarmReport& report, bool reliable) {
  RoundCounts c;
  for (const sim::SwarmDeviceReport& d : report.devices) {
    const auto& st = d.stats;
    c.started += reliable ? st.rounds_started : st.requests_sent;
    c.sent += st.requests_sent;
    c.valid += st.responses_valid;
    c.inc_rounds += st.inc_rounds;
    c.inc_fallbacks += st.inc_full_fallbacks;
    c.inc_pages += st.inc_pages_refreshed;
    if (st.inc_rounds != 0) ++c.inc_devices;
  }
  return c;
}

// ---------------------------------------------------------------------
// One instance of a workload: Swarm construction through export.

class Instance {
 public:
  Instance(const Workload& w, std::uint64_t seed, bool rings, Spans* spans)
      : w_(w), seed_(seed), rings_(rings), spans_(spans) {}

  static sim::SwarmConfig config_for(const Workload& w) {
    sim::SwarmConfig c;
    c.device_count = w.devices;
    c.prover.mac_alg = crypto::MacAlgorithm::kHmacSha1;
    c.prover.scheme = attest::FreshnessScheme::kCounter;
    c.prover.authenticate_requests = true;
    c.prover.measured_bytes = w.measured_bytes;
    c.prover.enable_incremental = w.incremental;
    c.attest_period_ms = kPeriodMs;
    c.stagger_ms = kStaggerMs;
    c.shard_count = kShards;
    c.share_app_image = w.shared_image;
    if (w.hostile) {
      c.link = net::lossy10_link();
      c.reliable = true;
      // An attempt is lost with p ~ 0.19 (10% each way), so 16 attempts
      // leave ~3e-12 of rounds unreachable: every round ends valid, and
      // the lost attempts still show up as retransmits and timeouts.
      c.retry.max_attempts = 16;
      c.retry.base_timeout_ms = 0.0;  // derived from the timing model
      c.retry.jitter_ms = 5.0;
    }
    return c;
  }

  /// Swarm construction, observer attach, pre-run phase, and
  /// materializing every device — everything setup_s covers.
  void setup() {
    {
      Spans::Scope s(spans_, "sim.swarm_ctor");
      const std::string fs = fleet_seed(seed_);
      swarm_ = std::make_unique<sim::Swarm>(config_for(w_),
                                            crypto::from_string(fs));
    }
    {
      Spans::Scope s(spans_, "obs.attach");
      if (rings_) {
        swarm_->attach_sharded_observer(&registry_);
      } else {
        swarm_->attach_observer(&registry_, nullptr);
      }
    }
    {
      Spans::Scope s(spans_, "sim.materialize_all");
      for (std::size_t i = 0; i < w_.devices; ++i) {
        Spans::Scope d(spans_, "sim.materialize");
        swarm_->session(i);
      }
    }
    if (w_.hostile) prime_replays();
    if (w_.incremental) prime_rewrites();
  }

  sim::SwarmReport drain(std::size_t threads) {
    Spans::Scope s(spans_, "sim.drain");
    return swarm_->run_parallel(w_.horizon_ms, threads);
  }

  struct Export {
    std::size_t records = 0;
    std::string fnv;
    obs::prof::ProfileTable profile;
    double seconds = 0.0;
  };

  Export export_once() {
    Export e;
    const auto t0 = Clock::now();
    std::vector<obs::TraceRecord> merged;
    {
      Spans::Scope s(spans_, "obs.merge");
      merged = swarm_->merged_trace();
    }
    std::ostringstream jsonl;
    {
      Spans::Scope s(spans_, "obs.jsonl");
      obs::write_jsonl(jsonl, merged);
    }
    {
      Spans::Scope s(spans_, "obs.profile_merge");
      e.profile = swarm_->merged_profile();
    }
    {
      // What a registry-only observer exports: every workload pays it.
      Spans::Scope s(spans_, "obs.registry_text");
      (void)registry_.to_text();
    }
    e.seconds = seconds_since(t0);
    e.records = merged.size();
    e.fnv = hex64(fnv1a(jsonl.str()));
    return e;
  }

  sim::Swarm& swarm() { return *swarm_; }
  obs::Registry& registry() { return registry_; }
  const std::vector<crypto::Bytes>& captured() const { return captured_; }
  std::uint64_t inputs_fnv() const { return inputs_fnv_; }
  std::uint64_t rewrite_failures() const { return rewrite_failures_; }
  std::uint64_t rewrites() const { return rewrites_; }

 private:
  // hostile_link: capture each device's first genuine request on the
  // wire (a recording tap chained inside the FaultyLink sees the honest
  // send before faults apply), then plant the open-loop replay schedule.
  void prime_replays() {
    Spans::Scope s(spans_, "sim.prime_replays");
    captured_.assign(w_.devices, crypto::Bytes{});
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < w_.devices; ++i) {
      sim::RecordingTap tap;
      net::FaultyLink* link = swarm_->faulty_link(i);
      link->set_inner(&tap);
      swarm_->session(i).send_request();
      link->set_inner(nullptr);
      if (tap.recorded_to_prover().empty()) continue;
      captured_[i] = tap.recorded_to_prover()[0].payload;
      for (double t = replay_phase_ms(seed_, i); t < w_.horizon_ms;
           t += kReplayGapMs) {
        swarm_->channel(i).inject_to_prover(captured_[i], t);
        h = fnv1a(std::to_string(i) + "@" + std::to_string(t), h);
      }
    }
    inputs_fnv_ = h;
  }

  // incremental_dirty: between rounds k and k+1 of device i, rewrite one
  // seeded measured page with its own bytes through MemoryBus::write_block
  // (write-event semantics mark it dirty; the reference still matches).
  void prime_rewrites() {
    Spans::Scope s(spans_, "sim.prime_rewrites");
    pages_ = attest::CodeAttest::page_count(w_.measured_bytes);
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < w_.devices; ++i) {
      for (std::uint64_t k = 1; rewrite_time(i, k) <= w_.horizon_ms; ++k) {
        h = fnv1a(std::to_string(i) + ":" + std::to_string(k) + "=" +
                      std::to_string(dirty_page(seed_, i, k, pages_)),
                  h);
      }
      arm_rewrite(i, 1);
    }
    inputs_fnv_ = h;
  }

  static double rewrite_time(std::size_t device, std::uint64_t k) {
    return stagger_offset(device) +
           (static_cast<double>(k) + 0.5) * kPeriodMs;
  }

  void arm_rewrite(std::size_t device, std::uint64_t k) {
    const double t = rewrite_time(device, k);
    if (t > w_.horizon_ms) return;
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(device) << 32) | (k & 0xffffffffull);
    swarm_->queue_of(device).schedule_at(t, [this, packed] {
      const std::size_t i = static_cast<std::size_t>(packed >> 32);
      const std::uint64_t round = packed & 0xffffffffull;
      arm_rewrite(i, round + 1);
      rewrite_page(i, round);
    });
  }

  void rewrite_page(std::size_t device, std::uint64_t k) {
    attest::ProverDevice& prover = swarm_->prover(device);
    hw::MemoryBus& bus = prover.mcu().bus();
    // The application's own context: its image starts at the flash base.
    const hw::AccessContext app{prover.mcu().layout().flash.begin};
    const hw::Addr addr =
        prover.surface().measured_memory.begin +
        static_cast<hw::Addr>(dirty_page(seed_, device, k, pages_) *
                              kPageBytes);
    std::uint8_t page[kPageBytes];
    const bool ok =
        bus.read_block(app, addr, std::span<std::uint8_t>(page, kPageBytes)) ==
            hw::BusStatus::kOk &&
        bus.write_block(app, addr, crypto::ByteView(page, kPageBytes)) ==
            hw::BusStatus::kOk;
    ++rewrites_;
    if (!ok) ++rewrite_failures_;
  }

  const Workload& w_;
  std::uint64_t seed_;
  bool rings_;
  Spans* spans_;
  obs::Registry registry_;
  std::unique_ptr<sim::Swarm> swarm_;
  std::vector<crypto::Bytes> captured_;
  std::size_t pages_ = 1;
  std::uint64_t inputs_fnv_ = 0;
  std::uint64_t rewrites_ = 0;
  std::uint64_t rewrite_failures_ = 0;
};

/// Golden fields of one drained instance (all deterministic).
JsonObject golden_fields(const Workload& w, Instance& inst,
                         const sim::SwarmReport& report,
                         const Instance::Export& ex, bool rings) {
  const RoundCounts c = count_rounds(report, w.hostile);
  JsonObject g;
  g.str("report_digest", report_digest(report));
  g.num("rounds_sent", c.sent);
  g.num("rounds_started", c.started);
  g.num("rounds_valid", c.valid);
  g.num("events_leftover", static_cast<std::uint64_t>(report.events_leftover));
  g.num("trace_dropped", static_cast<std::uint64_t>(
                             counter(inst.registry(), "obs.trace.dropped")));
  g.num("rewrite_failures", inst.rewrite_failures());
  g.str("inputs_fnv", hex64(inst.inputs_fnv()));
  if (rings) {
    g.str("trace_fnv", ex.fnv);
    g.num("trace_records", static_cast<std::uint64_t>(ex.records));
  }
  JsonObject timing;
  timing.num("timing.device_ms_per_round",
             c.valid == 0 ? 0.0
                          : report.total_attest_ms() /
                                static_cast<double>(c.valid));
  if (rings) {
    for (std::size_t p = 0; p + 1 < obs::prof::kPhaseCount; ++p) {
      const auto phase = static_cast<obs::prof::Phase>(p);
      const obs::prof::PhaseCost cost = ex.profile.total(phase);
      const std::string name(obs::prof::to_string(phase));
      timing.num("timing.phase_cycles." + name, cost.cycles);
      // Cycles per sample of the fixed-cost device phases are
      // device-model constants (the same for every seed), unlike the
      // totals; the wire wait and retried attempts vary with the link.
      if (cost.count != 0 && phase != obs::prof::Phase::kNetWait &&
          phase != obs::prof::Phase::kRetryOverhead) {
        timing.num("timing.cycles_per_sample." + name,
                   static_cast<double>(cost.cycles) /
                       static_cast<double>(cost.count));
      }
    }
  }
  g.obj("timing", timing);
  return g;
}

// ---------------------------------------------------------------------
// End-to-end mode: whole instances back to back until --seconds is used.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string mode = "e2e";
  std::string spans_path;
  std::size_t max_reps = 0;  // 0 = as many as --seconds allows
};

// One warm-up instance (excluded from the timings by run.py) + three.
constexpr std::size_t kMinReps = 4;

JsonObject run_e2e(const Workload& w, const Options& opt) {
  const std::size_t threads = drain_threads(w);
  JsonObject out;
  std::vector<JsonObject> reps;
  const auto start = Clock::now();

  for (std::size_t rep = 0;; ++rep) {
    if (opt.max_reps != 0 && rep >= opt.max_reps) break;
    if (opt.max_reps == 0 && rep >= kMinReps &&
        seconds_since(start) >= opt.seconds) {
      break;
    }
    Instance inst(w, opt.seed, w.rings, nullptr);
    const auto t_setup = Clock::now();
    inst.setup();
    const double setup_s = seconds_since(t_setup);

    const double cpu0 = cpu_seconds();
    const auto t_drain = Clock::now();
    const sim::SwarmReport report = inst.drain(threads);
    const double wall_s = seconds_since(t_drain);
    const double cpu_s = cpu_seconds() - cpu0;

    // One export, as a user pays it once after the drain. (Repeating it
    // hot was tried: on registry-only workloads the microsecond-scale
    // loop swung twice as much between runs as the single cold call.)
    const Instance::Export ex = inst.export_once();

    JsonObject r;
    r.num("setup_s", setup_s);
    r.num("drain_wall_s", wall_s);
    r.num("drain_cpu_s", cpu_s);
    r.num("export_s", ex.seconds);
    r.obj("golden", golden_fields(w, inst, report, ex, w.rings));
    reps.push_back(std::move(r));
  }
  out.str("workload", w.name);
  out.num("seed", opt.seed);
  out.num("threads", static_cast<std::uint64_t>(threads));
  out.arr("reps", reps);
  out.num("peak_rss_mb", peak_rss_mb());
  return out;
}

// ---------------------------------------------------------------------
// Traced mode: per-layer metrics from the benchmark's own spans plus the
// program's Registry counters.

/// A private prover/verifier pair for one sampled device: same config and
/// key as the fleet's device, driven through the same round sequence.
struct Pair {
  std::unique_ptr<attest::ProverDevice> prover;
  // The fleet's verifiers share one lookahead MAC engine per shard
  // (SwarmConfig::mac_batch); the pair's verifier gets its own. Declared
  // before the verifier, which holds a pointer to it.
  std::unique_ptr<attest::VerifierBatch> batch;
  std::unique_ptr<attest::Verifier> verifier;
};

Pair make_pair(const sim::SwarmConfig& config, bool incremental,
               const crypto::Bytes& key,
               const attest::ProverTemplate* tmpl,
               crypto::ByteView app_seed, crypto::ByteView verifier_seed,
               Spans* spans) {
  attest::ProverConfig pc = config.prover;
  pc.enable_incremental = incremental;
  Pair p;
  {
    Spans::Scope s(spans, "hw.prover_ctor");
    p.prover = tmpl != nullptr
                   ? std::make_unique<attest::ProverDevice>(pc, key, *tmpl)
                   : std::make_unique<attest::ProverDevice>(pc, key,
                                                            app_seed);
  }
  attest::Verifier::Config vc;
  vc.scheme = pc.scheme;
  vc.mac_alg = pc.mac_alg;
  vc.authenticate_requests = pc.authenticate_requests;
  vc.bind_generation = pc.bind_generation;
  attest::ProverDevice* prover = p.prover.get();
  vc.clock = [prover] { return prover->ground_truth_ticks(); };
  p.verifier = std::make_unique<attest::Verifier>(key, vc, verifier_seed);
  p.verifier->set_reference_memory(p.prover->reference_memory());
  if (config.mac_batch) {
    p.batch = std::make_unique<attest::VerifierBatch>();
    p.verifier->set_batch_engine(p.batch.get());
  }
  return p;
}

struct PairTally {
  std::uint64_t rounds = 0;
  std::uint64_t failures = 0;  // rounds that did not validate, or replays
                               // the prover accepted
};

/// Full-protocol rounds + replays + the bus/MAC spans over the measured
/// range, on one sampled device.
void drive_full(Pair& p, std::size_t device, std::size_t rounds,
                const crypto::Bytes& key, const crypto::Bytes& replay_wire,
                Spans& spans, PairTally& tally) {
  std::optional<attest::AttestRequest> first;
  for (std::size_t r = 1; r <= rounds; ++r) {
    const std::uint64_t rid = obs::prof::make_round_id(device, r);
    attest::AttestRequest request;
    {
      Spans::Scope s(&spans, "attest.make_request", rid);
      request = p.verifier->make_request();
    }
    std::optional<attest::AttestRequest> parsed;
    {
      Spans::Scope s(&spans, "attest.codec.request", rid);
      parsed = attest::AttestRequest::from_bytes(request.to_bytes());
    }
    if (!first.has_value()) first = request;
    attest::AttestOutcome outcome;
    {
      Spans::Scope s(&spans, "attest.prover_handle", rid);
      outcome = p.prover->handle(*parsed, obs::RoundContext{rid, 1});
    }
    std::optional<attest::AttestResponse> response;
    {
      Spans::Scope s(&spans, "attest.codec.response", rid);
      response =
          attest::AttestResponse::from_bytes(outcome.response.to_bytes());
    }
    bool ok = false;
    {
      Spans::Scope s(&spans, "attest.verifier_check", rid);
      ok = response.has_value() &&
           p.verifier->check_response(request, *response);
    }
    ++tally.rounds;
    if (outcome.status != attest::AttestStatus::kOk || !ok) ++tally.failures;
  }

  // A captured replay: the fleet's own first request for this device when
  // the workload captured one, else the pair's first request.
  std::optional<attest::AttestRequest> replay =
      replay_wire.empty() ? first
                          : attest::AttestRequest::from_bytes(replay_wire);
  for (int k = 0; k < 16 && replay.has_value(); ++k) {
    attest::AttestOutcome outcome;
    {
      Spans::Scope s(&spans, "attest.prover_reject");
      outcome = p.prover->handle(*replay);
    }
    if (outcome.status == attest::AttestStatus::kOk) ++tally.failures;
  }

  // The measured range through the bus in the trust anchor's context, and
  // the MAC over challenge || freshness || measured bytes, at the
  // workload's size.
  const hw::AddrRange range = p.prover->surface().measured_memory;
  std::vector<std::uint8_t> buf(range.end - range.begin);
  const std::unique_ptr<crypto::Mac> mac =
      crypto::make_mac(p.prover->config().mac_alg, key);
  std::uint8_t header[16] = {};
  for (int k = 0; k < 16; ++k) {
    {
      Spans::Scope s(&spans, "hw.read_block");
      if (p.prover->mcu().bus().read_block(p.prover->anchor().ctx(),
                                           range.begin, buf) !=
          hw::BusStatus::kOk) {
        ++tally.failures;
      }
    }
    Spans::Scope s(&spans, "crypto.mac");
    mac->init(sizeof header + buf.size());
    mac->update(crypto::ByteView(header, sizeof header));
    for (std::size_t off = 0; off < buf.size();
         off += attest::CodeAttest::kMeasureChunkBytes) {
      const std::size_t n = std::min(attest::CodeAttest::kMeasureChunkBytes,
                                     buf.size() - off);
      mac->update(crypto::ByteView(buf.data() + off, n));
    }
    (void)mac->finish();
  }
}

/// Incremental rounds with a seeded page rewrite before each.
void drive_incremental(Pair& p, std::size_t device, std::size_t rounds,
                       std::uint64_t seed, Spans& spans, PairTally& tally) {
  attest::ProverDevice& prover = *p.prover;
  hw::MemoryBus& bus = prover.mcu().bus();
  const hw::AccessContext app{prover.mcu().layout().flash.begin};
  const hw::AddrRange range = prover.surface().measured_memory;
  const std::size_t pages =
      attest::CodeAttest::page_count(range.end - range.begin);
  for (std::size_t r = 1; r <= rounds; ++r) {
    const std::uint64_t rid = obs::prof::make_round_id(device, r);
    if (r > 1) {
      const std::size_t page = dirty_page(seed, device, r - 1, pages);
      const hw::Addr addr =
          range.begin + static_cast<hw::Addr>(page * kPageBytes);
      const std::size_t len =
          std::min<std::size_t>(kPageBytes, range.end - addr);
      std::vector<std::uint8_t> bytes(len);
      bool ok = bus.read_block(app, addr, bytes) == hw::BusStatus::kOk;
      {
        Spans::Scope s(&spans, "hw.write_block", rid);
        ok = ok && bus.write_block(app, addr, bytes) == hw::BusStatus::kOk;
      }
      if (!ok) ++tally.failures;
    }
    attest::IncAttestRequest request;
    {
      Spans::Scope s(&spans, "attest.make_request_inc", rid);
      request = p.verifier->make_incremental_request();
    }
    std::optional<attest::IncAttestRequest> parsed;
    {
      Spans::Scope s(&spans, "attest.codec.request_inc", rid);
      parsed = attest::IncAttestRequest::from_bytes(request.to_bytes());
    }
    attest::AttestOutcome outcome;
    {
      Spans::Scope s(&spans, r == 1 ? "attest.prover_handle_inc_first"
                                    : "attest.prover_handle_inc",
                     rid);
      outcome = prover.handle_incremental(*parsed, obs::RoundContext{rid, 1});
    }
    std::optional<attest::IncAttestResponse> response;
    {
      Spans::Scope s(&spans, "attest.codec.response_inc", rid);
      response = attest::IncAttestResponse::from_bytes(
          outcome.inc_response.to_bytes());
    }
    bool ok = false;
    {
      Spans::Scope s(&spans, r == 1 ? "attest.verifier_check_inc_first"
                                    : "attest.verifier_check_inc",
                     rid);
      ok = response.has_value() &&
           p.verifier->check_incremental(request, *response);
    }
    ++tally.rounds;
    if (outcome.status != attest::AttestStatus::kOk || !ok) ++tally.failures;
  }
}

/// EventQueue alone: schedule_at + run_all with no-op actions at the
/// workload's round times (every device, every round).
double queue_ns_per_event(const Workload& w) {
  std::vector<double> times;
  for (std::size_t i = 0; i < w.devices; ++i) {
    for (std::uint64_t k = 1;; ++k) {
      const double t = stagger_offset(i) + static_cast<double>(k) * kPeriodMs;
      if (t > w.horizon_ms) break;
      times.push_back(t);
    }
  }
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    sim::EventQueue queue;
    std::uint64_t ran = 0;
    const auto t0 = Clock::now();
    for (const double t : times) queue.schedule_at(t, [&ran] { ++ran; });
    queue.run_all(times.size() + 1);
    const double s = seconds_since(t0);
    if (ran == times.size()) samples.push_back(s * 1e9 / times.size());
  }
  return median(samples);
}

/// FaultyLink tap cost per message (lossy10), on real wire frames.
double tap_ns_per_msg(const crypto::Bytes& request_wire,
                      const crypto::Bytes& response_wire,
                      std::uint64_t seed) {
  const std::string link_seed = "perfbench-link-" + std::to_string(seed);
  net::FaultyLink link(net::lossy10_link(), crypto::from_string(link_seed),
                       0);
  sim::TappedMessage to_prover{request_wire, 0.0, 0};
  sim::TappedMessage to_verifier{response_wire, 0.0, 0};
  std::vector<double> samples;
  std::uint64_t delivered = 0;
  constexpr int kMsgs = 20000;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kMsgs; k += 2) {
      to_prover.id = to_verifier.id = static_cast<std::uint64_t>(k);
      delivered += link.on_to_prover(to_prover).deliver ? 1 : 0;
      delivered += link.on_to_verifier(to_verifier).deliver ? 1 : 0;
    }
    samples.push_back(seconds_since(t0) * 1e9 / kMsgs);
  }
  return delivered == 0 ? 0.0 : median(samples);
}

double ecdsa_verify_ms(std::uint64_t seed) {
  const crypto::EcdsaKeyPair kp = crypto::ecdsa_generate_key(
      crypto::from_string("perfbench-ecdsa-" + std::to_string(seed)));
  const crypto::Bytes msg = crypto::from_string("perfbench boot image digest");
  const crypto::EcdsaSignature sig = crypto::ecdsa_sign(kp.private_key, msg);
  std::vector<double> samples;
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    const bool ok = crypto::ecdsa_verify(kp.public_key, msg, sig);
    const double s = seconds_since(t0);
    if (ok) samples.push_back(s * 1e3);
  }
  return median(samples);
}

JsonObject run_traced(const Workload& w, const Options& opt,
                      bool& pair_ok) {
  const std::size_t threads = drain_threads(w);
  const auto start = Clock::now();
  Spans spans;
  JsonObject m;  // per-layer metrics
  JsonObject out;

  // Rep A: the workload's own configuration, every layer boundary the
  // benchmark crosses wrapped in a span.
  Instance a(w, opt.seed, w.rings, &spans);
  {
    Spans::Scope s(&spans, "workload.setup");
    a.setup();
  }
  const double cpu0 = cpu_seconds();
  const auto t_drain = Clock::now();
  const sim::SwarmReport report = a.drain(threads);
  const double wall_a = seconds_since(t_drain);
  const double cpu_a = cpu_seconds() - cpu0;
  Instance::Export ex_a;
  {
    Spans::Scope s(&spans, "workload.export");
    ex_a = a.export_once();
  }
  const RoundCounts c = count_rounds(report, w.hostile);
  const double valid = std::max<double>(1.0, static_cast<double>(c.valid));
  out.obj("golden_a", golden_fields(w, a, report, ex_a, w.rings));

  // Rep B: the same workload with the other observer layout (rings on
  // for registry-only workloads and off for ring workloads) — the
  // program's own tracing overhead, and phase profiles for every
  // workload.
  Spans spans_b;
  Instance b(w, opt.seed, !w.rings, &spans_b);
  b.setup();
  const auto t_drain_b = Clock::now();
  const sim::SwarmReport report_b = b.drain(threads);
  const double wall_b = seconds_since(t_drain_b);
  const Instance::Export ex_b = b.export_once();
  out.obj("golden_b", golden_fields(w, b, report_b, ex_b, !w.rings));
  if (w.multi_thread) {
    // Determinism contract: the same seed gives the same report and the
    // same trace at 1 thread as at the measured thread count.
    Instance one(w, opt.seed, w.rings, nullptr);
    one.setup();
    const sim::SwarmReport report_1 = one.drain(1);
    const Instance::Export ex_1 = one.export_once();
    out.obj("single_thread", golden_fields(w, one, report_1, ex_1, w.rings));
  }
  const double rps_a = static_cast<double>(c.valid) / wall_a;
  const double rps_b = static_cast<double>(c.valid) / wall_b;
  const double rps_rings = w.rings ? rps_a : rps_b;
  const double rps_plain = w.rings ? rps_b : rps_a;
  const Instance::Export& ex_rings = w.rings ? ex_a : ex_b;

  // Layer counts from the program's Registry (rep A).
  const obs::Registry& reg = a.registry();
  std::uint64_t full_macs = 0, inc_macs = 0, rejects = 0, tap_msgs = 0;
  for (std::size_t i = 0; i < w.devices; ++i) {
    attest::CodeAttest& anchor = a.swarm().prover(i).anchor();
    full_macs += anchor.attestations_performed();
    inc_macs += anchor.incremental_performed();
    rejects += anchor.requests_rejected();
    if (const net::FaultyLink* link = a.swarm().faulty_link(i)) {
      tap_msgs += link->stats().to_prover.seen + link->stats().to_verifier.seen;
    }
  }
  const double requests = counter(reg, "verifier.requests");
  const double checks = counter(reg, "verifier.checks.valid") +
                        counter(reg, "verifier.checks.invalid");
  const double events = counter(reg, "queue.events_run");
  const double hits = counter(reg, "verifier.batch.hits");
  const double misses = counter(reg, "verifier.batch.misses");

  // Private pairs on a seeded sample of devices, repeated in passes until
  // the run's time is used (at least one pass).
  const sim::SwarmConfig config = Instance::config_for(w);
  std::optional<attest::ProverTemplate> tmpl;
  if (w.shared_image) {
    // The fleet's shared image, rebuilt from the fleet seed the way the
    // Swarm derives it.
    const std::string fs = fleet_seed(opt.seed);
    crypto::Bytes image_seed = crypto::from_string(fs);
    crypto::append(image_seed, crypto::from_string("ratt::app-image"));
    crypto::HmacDrbg image_drbg(image_seed);
    tmpl = attest::ProverDevice::make_template(config.prover,
                                               image_drbg.generate(16));
  }
  constexpr std::size_t kSampleDevices = 8;
  std::vector<std::size_t> sample;
  for (std::size_t k = 0; k < kSampleDevices; ++k) {
    sample.push_back(
        static_cast<std::size_t>(draw(opt.seed, kSample, k) % w.devices));
  }
  const std::size_t full_rounds = 32;
  const std::size_t inc_rounds = 16;
  PairTally tally;
  crypto::Bytes sample_request, sample_response;
  std::size_t passes = 0;
  do {
    for (const std::size_t dev : sample) {
      const crypto::Bytes& key = a.swarm().device_key(dev);
      const crypto::Bytes seed_bytes = crypto::from_string(
          "perfbench-pair-" + std::to_string(draw(opt.seed, kPairSeed, dev)));
      const crypto::Bytes& replay =
          a.captured().empty() ? crypto::Bytes{} : a.captured()[dev];
      Pair full = make_pair(config, w.incremental, key,
                            tmpl ? &*tmpl : nullptr, seed_bytes, seed_bytes,
                            &spans);
      drive_full(full, dev, full_rounds, key, replay, spans, tally);
      Pair inc = make_pair(config, true, key, tmpl ? &*tmpl : nullptr,
                           seed_bytes, seed_bytes, &spans);
      drive_incremental(inc, dev, inc_rounds, opt.seed, spans, tally);
      if (sample_request.empty()) {
        sample_request = full.verifier->make_request().to_bytes();
        sample_response =
            full.prover
                ->handle(*attest::AttestRequest::from_bytes(sample_request))
                .response.to_bytes();
      }
    }
    ++passes;
  } while (seconds_since(start) < opt.seconds * 0.6 && passes < 64);
  pair_ok = tally.failures == 0 && tally.rounds > 0;

  const double us = 1e6;
  const double make_request_us = spans.mean_s("attest.make_request") * us;
  const double codec_us = (spans.mean_s("attest.codec.request") +
                           spans.mean_s("attest.codec.response")) *
                          us;
  const double handle_us = spans.mean_s("attest.prover_handle") * us;
  const double check_us = spans.mean_s("attest.verifier_check") * us;
  const double reject_us = spans.mean_s("attest.prover_reject") * us;
  const double handle_inc_us = spans.mean_s("attest.prover_handle_inc") * us;
  const double check_inc_us = spans.mean_s("attest.verifier_check_inc") * us;
  const double handle_inc_first_us =
      spans.mean_s("attest.prover_handle_inc_first") * us;
  const double check_inc_first_us =
      spans.mean_s("attest.verifier_check_inc_first") * us;
  const double make_inc_us = spans.mean_s("attest.make_request_inc") * us;
  const double codec_inc_us = (spans.mean_s("attest.codec.request_inc") +
                               spans.mean_s("attest.codec.response_inc")) *
                              us;
  const double write_block_us = spans.mean_s("hw.write_block") * us;
  const double q_ns = queue_ns_per_event(w);
  const double tap_ns =
      tap_ns_per_msg(sample_request, sample_response, opt.seed);

  // Per-round cost of every traced layer call, weighted by how often the
  // drain made that call; the remainder is what only in-program spans
  // could attribute (session/channel internals, closures, allocation).
  // An incremental verifier's first check builds its page-tag table and
  // a first-contact prover re-MACs every page: both are priced at the
  // pair's own first round, the steady rounds at the later ones.
  const double inc_requests = static_cast<double>(c.inc_rounds);
  const double full_requests = std::max(0.0, requests - inc_requests);
  const double inc_fallbacks = static_cast<double>(c.inc_fallbacks);
  const double inc_first_checks = static_cast<double>(c.inc_devices);
  const double full_checks = std::max(0.0, checks - inc_requests);
  const double rewrites = static_cast<double>(a.rewrites());
  const double attributed_us =
      (full_requests * (make_request_us + codec_us) +
       inc_requests * (make_inc_us + codec_inc_us) +
       static_cast<double>(full_macs) * handle_us +
       std::max(0.0, static_cast<double>(inc_macs) - inc_fallbacks) *
           handle_inc_us +
       inc_fallbacks * handle_inc_first_us +
       static_cast<double>(rejects) * reject_us + full_checks * check_us +
       std::max(0.0, inc_requests - inc_first_checks) * check_inc_us +
       inc_first_checks * check_inc_first_us + events * q_ns / 1e3 +
       static_cast<double>(tap_msgs) * tap_ns / 1e3 +
       rewrites * write_block_us) /
      valid;
  const double cpu_us_per_round = cpu_a * us / valid;

  // sim
  m.num("sim.swarm_ctor_ms", spans.total_s("sim.swarm_ctor") * 1e3);
  m.num("sim.materialize_us", spans.mean_s("sim.materialize") * us);
  m.num("sim.resident_bytes_per_device",
        a.swarm().resident().per_device_bytes());
  m.num("sim.events_per_round", events / valid);
  m.num("sim.queue_ns_per_event", q_ns);
  m.num("sim.drain_cpu_util", cpu_a / (wall_a * static_cast<double>(threads)));
  m.num("sim.cpu_us_per_round", cpu_us_per_round);
  m.num("sim.attributed_us_per_round", attributed_us);
  m.num("sim.unattributed_us_per_round", cpu_us_per_round - attributed_us);
  // attest
  m.num("attest.make_request_us", make_request_us);
  m.num("attest.codec_us", codec_us);
  m.num("attest.prover_handle_us", handle_us);
  m.num("attest.verifier_check_us", check_us);
  m.num("attest.prover_reject_us", reject_us);
  double outcome_rejects = 0.0;
  for (const auto& [name, ctr] : reg.counters()) {
    if (name.rfind("prover.outcome.", 0) == 0 &&
        name != "prover.outcome.ok") {
      outcome_rejects += ctr.value();
    }
  }
  m.num("attest.rejects_per_round", outcome_rejects / valid);
  m.num("attest.prover_handle_inc_us", handle_inc_us);
  m.num("attest.verifier_check_inc_us", check_inc_us);
  m.num("attest.inc_pages_per_round",
        c.inc_rounds == 0 ? 0.0
                          : static_cast<double>(c.inc_pages) /
                                static_cast<double>(c.inc_rounds));
  m.num("attest.inc_fallback_frac",
        c.inc_rounds == 0 ? 0.0
                          : static_cast<double>(c.inc_fallbacks) /
                                static_cast<double>(c.inc_rounds));
  m.num("attest.batch_hit_ratio",
        hits + misses == 0.0 ? 0.0 : hits / (hits + misses));
  // crypto
  m.num("crypto.mac_us", spans.mean_s("crypto.mac") * us);
  m.num("crypto.macs_per_round",
        (static_cast<double>(full_macs + inc_macs) + checks) / valid);
  m.num("crypto.ecdsa_verify_ms", ecdsa_verify_ms(opt.seed));
  // hw
  m.num("hw.read_block_us", spans.mean_s("hw.read_block") * us);
  m.num("hw.write_block_us", write_block_us);
  m.num("hw.prover_ctor_ms", spans.mean_s("hw.prover_ctor") * 1e3);
  // net
  m.num("net.retransmits_per_round", counter(reg, "net.retransmits") / valid);
  m.num("net.timeouts_per_round", counter(reg, "net.timeouts") / valid);
  m.num("net.tap_ns_per_msg", tap_ns);
  // obs (from whichever rep ran the rings)
  const Spans& ring_spans = w.rings ? spans : spans_b;
  m.num("obs.merge_ms", ring_spans.total_s("obs.merge") * 1e3);
  m.num("obs.jsonl_ms", ring_spans.total_s("obs.jsonl") * 1e3);
  m.num("obs.records_per_round", static_cast<double>(ex_rings.records) / valid);
  m.num("obs.overhead_frac", 1.0 - rps_rings / rps_plain);
  m.num("obs.trace_dropped",
        counter(w.rings ? a.registry() : b.registry(), "obs.trace.dropped"));
  // timing (simulated; pinned)
  m.num("timing.device_ms_per_round", report.total_attest_ms() / valid);
  for (std::size_t p = 0; p + 1 < obs::prof::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::prof::Phase>(p);
    m.num("timing.phase_cycles." + std::string(obs::prof::to_string(phase)),
          static_cast<double>(ex_rings.profile.total(phase).cycles) / valid);
  }

  if (!opt.spans_path.empty()) {
    std::ofstream file(opt.spans_path, std::ios::binary);
    spans.write_jsonl(file, "a");
    spans_b.write_jsonl(file, "b");
    if (!file) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   opt.spans_path.c_str());
      pair_ok = false;
    }
  }

  out.str("workload", w.name);
  out.num("seed", opt.seed);
  out.num("threads", static_cast<std::uint64_t>(threads));
  out.num("pair_rounds", tally.rounds);
  out.num("pair_failures", tally.failures);
  out.num("pair_passes", static_cast<std::uint64_t>(passes));
  out.obj("metrics", m);
  out.num("peak_rss_mb", peak_rss_mb());
  return out;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::strtoll(val, nullptr, 10));
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--mode") {
      opt.mode = val;
    } else if (key == "--spans") {
      opt.spans_path = val;
    } else if (key == "--max-reps") {
      opt.max_reps = static_cast<std::size_t>(std::strtoull(val, nullptr, 10));
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (opt.mode == "e2e" || opt.mode == "traced");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--mode e2e|traced [--spans FILE] [--max-reps N]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  JsonObject out;
  if (opt.mode == "e2e") {
    out = run_e2e(*w, opt);
  } else {
    bool pair_ok = false;
    out = run_traced(*w, opt, pair_ok);
    out.boolean("pair_ok", pair_ok);
  }
  out.str("build_type", RATT_PERFBENCH_BUILD_TYPE);
  out.str("compiler", RATT_PERFBENCH_CXX_ID);
  std::printf("%s\n", out.text().c_str());
  return 0;
}
