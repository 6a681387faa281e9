// Per-byte reference for MemoryBus block transfers, built only from the
// public read8/write8 accessors: the semantics read_block/write_block
// must reproduce byte for byte (statuses, storage mutations, fault log,
// resident bytes), and an erase verdict from a per-byte
// AccessController::allows scan to check erase_flash_block's window walk
// against. Test-only — the bus itself has one, window-coalesced path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "ratt/hw/bus.hpp"

namespace ratt::hw::reference {

inline BusStatus read_block(MemoryBus& bus, const AccessContext& ctx,
                            Addr addr, std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const BusStatus s = bus.read8(ctx, addr + static_cast<Addr>(i), out[i]);
    if (s != BusStatus::kOk) return s;
  }
  return BusStatus::kOk;
}

inline BusStatus write_block(MemoryBus& bus, const AccessContext& ctx,
                             Addr addr, ByteView data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    const BusStatus s = bus.write8(ctx, addr + static_cast<Addr>(i), data[i]);
    if (s != BusStatus::kOk) return s;
  }
  return BusStatus::kOk;
}

/// The status erase_flash_block(ctx, addr) must return: kUnmapped off the
/// map, kReadOnly outside flash, kDenied when `controller` refuses a
/// write to any single byte of the erase block, kOk otherwise.
inline BusStatus erase_status(const MemoryBus& bus,
                              const AccessController* controller,
                              const AccessContext& ctx, Addr addr) {
  const MemoryBus::RegionInfo* region = bus.region_at(addr);
  if (region == nullptr) return BusStatus::kUnmapped;
  if (region->kind != MemoryKind::kFlash) return BusStatus::kReadOnly;
  if (controller == nullptr || ctx.pc == kHardwarePc) return BusStatus::kOk;
  const Addr block = MemoryBus::kFlashBlockSize;
  const Addr begin =
      region->range.begin + (addr - region->range.begin) / block * block;
  const Addr end = std::min(begin + block, region->range.end);
  for (Addr a = begin; a < end; ++a) {
    if (!controller->allows(ctx, AccessType::kWrite, a)) {
      return BusStatus::kDenied;
    }
  }
  return BusStatus::kOk;
}

}  // namespace ratt::hw::reference
