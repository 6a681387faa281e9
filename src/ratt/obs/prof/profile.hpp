// ratt::obs::prof — per-phase cost attribution for attestation rounds.
//
// The paper's whole argument is a cost breakdown: Table 1 prices each
// primitive, Sec. 3.1/4.1 turn those prices into the DoS asymmetry. This
// layer attributes every simulated cycle of a round to one of a small,
// closed set of phases, so regressions ("requests/s dropped") decompose
// into "which phase ate the cycles":
//
//   req_auth        authenticating the request MAC (Sec. 4.1) — also
//                   where every rejected request's cycles land, since
//                   authentication is all a reject costs,
//   freshness       the freshness-policy check (Sec. 4.2; a few memory
//                   words — charged 0 cycles by the timing model, but
//                   counted, so the report can show it is *not* where
//                   time goes),
//   mem_mac         streaming the measured memory through the MAC — the
//                   headline ~754 ms at 512 KB / 24 MHz,
//   resp_mac        MAC setup, header absorption and finalization (the
//                   response side of the measurement),
//   net_wait        wire + queueing time of the attempt that completed a
//                   round (verifier-side, device idle — sleep power),
//   retry_overhead  prover cycles extracted by wire attempts beyond a
//                   round's first (each retry is a fresh request the
//                   prover fully serves — the PR-4 amplification),
//   other           residual cycles no phase claims (the report's
//                   coverage check keeps this under 5%).
//
// Determinism contract (same as traces): one ShardProfile per shard,
// never shared across worker threads; each device lives in exactly one
// shard, so merging is collation, not floating-point re-association —
// same seed => byte-identical ProfileTable JSONL at any thread/shard
// count.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ratt::obs::prof {

enum class Phase : std::uint8_t {
  kReqAuth = 0,
  kFreshness,
  kMemMac,
  kRespMac,
  kNetWait,
  kRetryOverhead,
  kOther,
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kOther) + 1;

std::string_view to_string(Phase phase);

/// Deterministic round id from (device_id, session_seq): a splitmix64
/// finalizer over the pair, so ids are unique in practice and NEVER come
/// from a global atomic — sharded run_parallel stays byte-identical at
/// any thread count. 0 is reserved as the "no round" sentinel.
constexpr std::uint64_t make_round_id(std::uint64_t device_id,
                                      std::uint64_t session_seq) {
  std::uint64_t x =
      (device_id + 1) * 0x9E3779B97F4A7C15ull ^ (session_seq + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

/// Accumulated cost of one (device, phase) cell.
struct PhaseCost {
  std::uint64_t cycles = 0;    // simulated device cycles
  double energy_mj = 0.0;      // from the attached PowerModel
  std::uint64_t bus_bytes = 0; // bytes moved over the simulated bus
  std::uint64_t mac_bytes = 0; // bytes fed through a MAC
  std::uint64_t count = 0;     // samples

  void add(const PhaseCost& other) {
    cycles += other.cycles;
    energy_mj += other.energy_mj;
    bus_bytes += other.bus_bytes;
    mac_bytes += other.mac_bytes;
    count += other.count;
  }

  friend bool operator==(const PhaseCost&, const PhaseCost&) = default;
};

/// One attributed cost sample (an instrumentation site emits these).
struct PhaseSample {
  Phase phase = Phase::kOther;
  std::uint64_t device_id = 0;
  std::uint64_t round_id = 0;  // 0 = unattributed (e.g. injected flood)
  std::uint64_t cycles = 0;
  double energy_mj = 0.0;
  std::uint64_t bus_bytes = 0;
  std::uint64_t mac_bytes = 0;
  /// When the work containing this phase ended (device clock for prover
  /// phases, queue clock for net_wait). Samples of one batch share the
  /// anchor; downstream waveform builders lay them out back to back
  /// ending there. 0 when the emitting site predates the power layer.
  double sim_time_ms = 0.0;
  /// The phase's own duration in ms (cycles / clock for device phases,
  /// the wire round trip for net_wait).
  double duration_ms = 0.0;
};

using DevicePhases = std::array<PhaseCost, kPhaseCount>;

/// Tap on the sample stream of one ShardProfile — the hook the power
/// layer (obs::power::ShardPowerRecorder) uses to turn the exact phase
/// partition into per-round power waveforms. Shard-local like the
/// profile itself: never shared across worker threads.
class PhaseHook {
 public:
  virtual ~PhaseHook() = default;
  virtual void on_phase(const PhaseSample& sample) = 0;
};

/// Shard-local accumulator: one per shard (like the per-shard trace
/// rings), so worker threads never share one. record() is the only hot
/// call. Device ids are fleet indices and a shard owns a contiguous
/// range of them, so the rows are one flat vector indexed by the id's
/// offset from the lowest id recorded: a record is a subtraction and a
/// bounds check, not a tree walk. A row no sample ever touched (a gap in
/// the span) reads as all-zero and is not part of devices().
class ShardProfile {
 public:
  /// Ascending-id view of the recorded rows: iterates
  /// (device_id, const DevicePhases&) pairs, skipping never-recorded ids.
  class DeviceView {
   public:
    using value_type = std::pair<std::uint64_t, const DevicePhases&>;

    class iterator {
     public:
      value_type operator*() const { return {base_ + i_, (*rows_)[i_]}; }
      iterator& operator++() {
        ++i_;
        skip_empty();
        return *this;
      }
      bool operator==(const iterator& other) const { return i_ == other.i_; }

     private:
      friend class DeviceView;
      iterator(const std::vector<DevicePhases>* rows, std::uint64_t base,
               std::size_t i)
          : rows_(rows), base_(base), i_(i) {
        skip_empty();
      }
      void skip_empty() {
        while (i_ < rows_->size() && !recorded((*rows_)[i_])) ++i_;
      }
      const std::vector<DevicePhases>* rows_;
      std::uint64_t base_;
      std::size_t i_;
    };

    iterator begin() const { return {rows_, base_, 0}; }
    iterator end() const { return {rows_, base_, rows_->size()}; }
    /// Number of recorded devices (a scan — for tests and reports).
    std::size_t size() const;
    /// Row of a recorded device; throws std::out_of_range otherwise.
    const DevicePhases& at(std::uint64_t device_id) const;

   private:
    friend class ShardProfile;
    DeviceView(const std::vector<DevicePhases>* rows, std::uint64_t base)
        : rows_(rows), base_(base) {}
    const std::vector<DevicePhases>* rows_;
    std::uint64_t base_;
  };

  void record(const PhaseSample& sample);

  /// Valid until the next record() (which may grow the rows).
  DeviceView devices() const { return {&rows_, base_}; }
  std::uint64_t samples_total() const { return samples_; }

  /// Forward every recorded sample (after accumulation) to `hook`.
  /// nullptr detaches. The hook must live in the same shard as this
  /// profile — it runs on the shard's worker thread.
  void set_hook(PhaseHook* hook) { hook_ = hook; }
  PhaseHook* hook() const { return hook_; }

 private:
  /// Every record() bumps one cell's count, so a row is recorded iff
  /// any count is nonzero.
  static bool recorded(const DevicePhases& row) {
    for (const PhaseCost& cell : row) {
      if (cell.count != 0) return true;
    }
    return false;
  }
  /// Grow the rows so they cover `device_id` (cold: at most once per new
  /// lowest/highest id).
  void cover(std::uint64_t device_id);

  std::uint64_t base_ = 0;  // device id of rows_[0]
  std::vector<DevicePhases> rows_;
  std::uint64_t samples_ = 0;
  PhaseHook* hook_ = nullptr;
};

/// Canonical merged profile: per-device rows in device order, plus fleet
/// totals. Built by merging shard profiles (pure collation — each device
/// lives in exactly one shard) or from a single ShardProfile.
class ProfileTable {
 public:
  ProfileTable() = default;

  /// Merge shard-local profiles. Devices recorded by several profiles
  /// (single-sink setups) sum cell-wise — still deterministic, because
  /// profiles are merged in the order given.
  static ProfileTable merge(
      std::span<const ShardProfile* const> shards);

  const std::map<std::uint64_t, DevicePhases>& devices() const {
    return devices_;
  }

  /// Fleet-wide total of one phase (device order, deterministic).
  PhaseCost total(Phase phase) const;
  /// Sum of cycles over every phase (the coverage denominator).
  std::uint64_t total_cycles() const;

  /// One JSON object per (device, phase) cell with count > 0, devices
  /// ascending, phases in enum order — byte-identical for the same seed
  /// at any thread/shard count. Schema: docs/PROFILING.md.
  void write_jsonl(std::ostream& out) const;

  /// Table-3-style console report: fleet totals per phase (cycles, ms at
  /// the given clock, energy, bytes, share of total cycles) plus the
  /// coverage line the CI gate checks.
  void write_report(std::ostream& out, double clock_hz) const;

  friend bool operator==(const ProfileTable&, const ProfileTable&) = default;

 private:
  std::map<std::uint64_t, DevicePhases> devices_;
};

/// Phase-name lookup for parsers/gates (kPhaseCount on miss).
Phase phase_from_string(std::string_view name);

}  // namespace ratt::obs::prof
