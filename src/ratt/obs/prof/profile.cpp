#include "ratt/obs/prof/profile.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace ratt::obs::prof {

namespace {

void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

std::string_view to_string(Phase phase) {
  switch (phase) {
    case Phase::kReqAuth:
      return "req_auth";
    case Phase::kFreshness:
      return "freshness";
    case Phase::kMemMac:
      return "mem_mac";
    case Phase::kRespMac:
      return "resp_mac";
    case Phase::kNetWait:
      return "net_wait";
    case Phase::kRetryOverhead:
      return "retry_overhead";
    case Phase::kOther:
      return "other";
  }
  return "unknown";
}

Phase phase_from_string(std::string_view name) {
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    if (to_string(static_cast<Phase>(p)) == name) {
      return static_cast<Phase>(p);
    }
  }
  return static_cast<Phase>(kPhaseCount);
}

std::size_t ShardProfile::DeviceView::size() const {
  std::size_t n = 0;
  for (auto it = begin(); it != end(); ++it) ++n;
  return n;
}

const DevicePhases& ShardProfile::DeviceView::at(
    std::uint64_t device_id) const {
  // Unsigned wrap sends ids below base_ past the end too.
  const std::uint64_t offset = device_id - base_;
  if (offset >= rows_->size() || !recorded((*rows_)[offset])) {
    throw std::out_of_range("ShardProfile: device not recorded");
  }
  return (*rows_)[offset];
}

void ShardProfile::cover(std::uint64_t device_id) {
  if (rows_.empty()) {
    base_ = device_id;
    rows_.resize(1);
    return;
  }
  if (device_id >= base_) {
    // vector growth is geometric, so ascending ids stay amortized O(1).
    rows_.resize(device_id - base_ + 1);
    return;
  }
  // Prepend down to the new lowest id plus an eighth of the current span
  // of headroom (clamped at id 0), so even strictly descending ids cost
  // amortized O(1) row moves while a gap wastes at most ~12% of the span.
  const std::uint64_t headroom =
      std::min<std::uint64_t>(device_id, rows_.size() / 8);
  const std::uint64_t new_base = device_id - headroom;
  rows_.insert(rows_.begin(), static_cast<std::size_t>(base_ - new_base),
               DevicePhases{});
  base_ = new_base;
}

void ShardProfile::record(const PhaseSample& sample) {
  if (sample.device_id - base_ >= rows_.size()) cover(sample.device_id);
  PhaseCost& cell = rows_[static_cast<std::size_t>(sample.device_id - base_)]
                         [static_cast<std::size_t>(sample.phase)];
  cell.cycles += sample.cycles;
  cell.energy_mj += sample.energy_mj;
  cell.bus_bytes += sample.bus_bytes;
  cell.mac_bytes += sample.mac_bytes;
  ++cell.count;
  ++samples_;
  if (hook_ != nullptr) hook_->on_phase(sample);
}

ProfileTable ProfileTable::merge(
    std::span<const ShardProfile* const> shards) {
  ProfileTable table;
  for (const ShardProfile* shard : shards) {
    if (shard == nullptr) continue;
    for (const auto& [device, phases] : shard->devices()) {
      // Rows arrive in ascending id order, so for the usual disjoint
      // shard ranges the end hint makes each insert O(1).
      DevicePhases& dst =
          table.devices_.try_emplace(table.devices_.end(), device)->second;
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        dst[p].add(phases[p]);
      }
    }
  }
  return table;
}

PhaseCost ProfileTable::total(Phase phase) const {
  PhaseCost total;
  for (const auto& [device, phases] : devices_) {
    total.add(phases[static_cast<std::size_t>(phase)]);
  }
  return total;
}

std::uint64_t ProfileTable::total_cycles() const {
  std::uint64_t cycles = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    cycles += total(static_cast<Phase>(p)).cycles;
  }
  return cycles;
}

void ProfileTable::write_jsonl(std::ostream& out) const {
  std::string line;
  for (const auto& [device, phases] : devices_) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const PhaseCost& cell = phases[p];
      if (cell.count == 0) continue;
      line.clear();
      line += "{\"device_id\":";
      append_u64(line, device);
      line += ",\"phase\":\"";
      line += to_string(static_cast<Phase>(p));
      line += "\",\"count\":";
      append_u64(line, cell.count);
      line += ",\"cycles\":";
      append_u64(line, cell.cycles);
      line += ",\"energy_mj\":";
      append_double(line, cell.energy_mj);
      line += ",\"bus_bytes\":";
      append_u64(line, cell.bus_bytes);
      line += ",\"mac_bytes\":";
      append_u64(line, cell.mac_bytes);
      line += '}';
      out << line << '\n';
    }
  }
}

void ProfileTable::write_report(std::ostream& out, double clock_hz) const {
  const std::uint64_t all_cycles = total_cycles();
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-15s %10s %14s %12s %12s %12s %12s %7s\n",
                "phase", "count", "cycles", "ms", "energy_mj", "bus_bytes",
                "mac_bytes", "share");
  out << buf;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseCost cell = total(static_cast<Phase>(p));
    const double ms =
        clock_hz > 0.0 ? 1000.0 * static_cast<double>(cell.cycles) / clock_hz
                       : 0.0;
    const double share =
        all_cycles == 0 ? 0.0
                        : 100.0 * static_cast<double>(cell.cycles) /
                              static_cast<double>(all_cycles);
    std::snprintf(buf, sizeof buf,
                  "  %-15s %10llu %14llu %12.3f %12.4f %12llu %12llu %6.2f%%\n",
                  std::string(to_string(static_cast<Phase>(p))).c_str(),
                  static_cast<unsigned long long>(cell.count),
                  static_cast<unsigned long long>(cell.cycles), ms,
                  cell.energy_mj,
                  static_cast<unsigned long long>(cell.bus_bytes),
                  static_cast<unsigned long long>(cell.mac_bytes), share);
    out << buf;
  }
  const PhaseCost other = total(Phase::kOther);
  const double other_share =
      all_cycles == 0 ? 0.0
                      : 100.0 * static_cast<double>(other.cycles) /
                            static_cast<double>(all_cycles);
  std::snprintf(buf, sizeof buf,
                "  coverage: %.2f%% of %llu total cycles attributed to named "
                "phases (other %.2f%%)\n",
                100.0 - other_share,
                static_cast<unsigned long long>(all_cycles), other_share);
  out << buf;
}

}  // namespace ratt::obs::prof
