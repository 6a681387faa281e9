#include "ratt/hw/bus.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace ratt::hw {

std::string to_string(MemoryKind kind) {
  switch (kind) {
    case MemoryKind::kRom:
      return "ROM";
    case MemoryKind::kRam:
      return "RAM";
    case MemoryKind::kFlash:
      return "Flash";
    case MemoryKind::kMmio:
      return "MMIO";
  }
  return "unknown";
}

std::string to_string(BusStatus status) {
  switch (status) {
    case BusStatus::kOk:
      return "ok";
    case BusStatus::kUnmapped:
      return "unmapped";
    case BusStatus::kReadOnly:
      return "read-only";
    case BusStatus::kDenied:
      return "denied";
  }
  return "unknown";
}

void MemoryBus::Region::read_span(std::size_t off, std::size_t n,
                                  std::uint8_t* dst) const {
  const Page* page = page_at(off / kPageSize);
  const std::size_t in_page = off % kPageSize;
  std::size_t stored = 0;
  if (page != nullptr && in_page < page->backed) {
    stored = std::min<std::size_t>(n, page->backed - in_page);
    std::memcpy(dst, page->data + in_page, stored);
  }
  std::memset(dst + stored, fill, n - stored);
}

std::uint8_t* MemoryBus::Region::touch_page(std::size_t p, std::size_t end) {
  std::uint32_t idx = page_index[p];
  if (idx == kNoPage) {
    idx = static_cast<std::uint32_t>(pages.size());
    pages.push_back(Page{nullptr, nullptr, 0, static_cast<std::uint32_t>(p)});
    page_index[p] = idx;
  }
  Page& page = pages[idx];
  const bool grow = end > page.backed;
  if (grow || page.owner.use_count() > 1) {
    // A power-of-two number of lines, so the backing is a function of the
    // highest byte written alone (write8 loops and write_block end up
    // with the same allocation).
    const std::size_t len =
        grow ? std::min(page_len(p),
                        std::max(kLineSize, std::bit_ceil(end)))
             : page.backed;
    auto fresh = std::make_shared<Bytes>(len, fill);
    if (page.backed != 0) std::memcpy(fresh->data(), page.data, page.backed);
    page.owner = std::move(fresh);
    page.data = page.owner->data();
    page.backed = static_cast<std::uint32_t>(len);
  }
  return page.data;
}

void MemoryBus::Region::store(std::size_t off, const std::uint8_t* src,
                              std::size_t n, bool program) {
  const std::size_t p = off / kPageSize;
  const std::size_t in_page = off % kPageSize;
  const Page* page = page_at(p);
  const std::size_t backed = page == nullptr ? 0 : page->backed;
  while (n > 0 && in_page + n > backed && src[n - 1] == fill) --n;
  if (n == 0) return;
  std::uint8_t* dst = touch_page(p, in_page + n) + in_page;
  if (program) {
    for (std::size_t j = 0; j < n; ++j) {
      dst[j] = static_cast<std::uint8_t>(dst[j] & src[j]);
    }
  } else {
    std::memcpy(dst, src, n);
  }
}

void MemoryBus::Region::drop_page(std::size_t p) {
  const std::uint32_t idx = page_index[p];
  if (idx == kNoPage) return;
  const auto last = static_cast<std::uint32_t>(pages.size() - 1);
  if (idx != last) {
    pages[idx] = std::move(pages[last]);
    page_index[pages[idx].page_no] = idx;
  }
  pages.pop_back();
  page_index[p] = kNoPage;
}

void MemoryBus::check_overlap(const AddrRange& range,
                              const std::string& name) const {
  if (range.empty()) {
    throw std::invalid_argument("MemoryBus: empty range for region " + name);
  }
  for (const auto& r : regions_) {
    if (r->info.range.overlaps(range)) {
      throw std::invalid_argument("MemoryBus: region " + name +
                                  " overlaps " + r->info.name);
    }
  }
}

void MemoryBus::map_storage(std::string name, MemoryKind kind,
                            AddrRange range) {
  if (kind == MemoryKind::kMmio) {
    throw std::invalid_argument("MemoryBus: use map_device for MMIO");
  }
  check_overlap(range, name);
  auto region = std::make_unique<Region>();
  region->info = RegionInfo{std::move(name), kind, range};
  // Flash powers up erased (0xff); RAM and ROM are zeroed. No page is
  // allocated yet — untouched pages read as the fill byte directly.
  region->fill = kind == MemoryKind::kFlash ? 0xff : 0x00;
  const std::size_t pages = (range.size() + kPageSize - 1) / kPageSize;
  region->page_index.assign(pages, Region::kNoPage);
  region->dirty.assign((pages + 63) / 64, 0);
  regions_.push_back(std::move(region));
}

void MemoryBus::map_device(std::string name, AddrRange range,
                           MmioDevice& device) {
  check_overlap(range, name);
  auto region = std::make_unique<Region>();
  region->info = RegionInfo{std::move(name), MemoryKind::kMmio, range};
  region->device = &device;
  regions_.push_back(std::move(region));
}

MemoryBus::Region* MemoryBus::find(Addr addr) {
  for (auto& r : regions_) {
    if (r->info.range.contains(addr)) return r.get();
  }
  return nullptr;
}

const MemoryBus::Region* MemoryBus::find(Addr addr) const {
  for (const auto& r : regions_) {
    if (r->info.range.contains(addr)) return r.get();
  }
  return nullptr;
}

const MemoryBus::RegionInfo* MemoryBus::region_at(Addr addr) const {
  const Region* r = find(addr);
  return r != nullptr ? &r->info : nullptr;
}

std::vector<MemoryBus::RegionInfo> MemoryBus::regions() const {
  std::vector<RegionInfo> out;
  out.reserve(regions_.size());
  for (const auto& r : regions_) {
    out.push_back(r->info);
  }
  return out;
}

void MemoryBus::set_fault_capacity(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("MemoryBus: fault capacity must be >= 1");
  }
  fault_capacity_ = capacity;
  clear_faults();
}

std::vector<BusFault> MemoryBus::faults() const {
  std::vector<BusFault> out;
  out.reserve(fault_ring_.size());
  if (fault_ring_.size() < fault_capacity_) {
    out = fault_ring_;
  } else {
    // Full ring: fault_next_ points at the oldest entry.
    out.insert(out.end(), fault_ring_.begin() + fault_next_,
               fault_ring_.end());
    out.insert(out.end(), fault_ring_.begin(),
               fault_ring_.begin() + fault_next_);
  }
  return out;
}

void MemoryBus::clear_faults() {
  fault_ring_.clear();
  fault_next_ = 0;
  faults_total_ = 0;
  faults_dropped_ = 0;
}

void MemoryBus::record_fault(const AccessContext& ctx, Addr addr,
                             AccessType type, BusStatus status) {
  ++faults_total_;
  if (fault_ring_.size() < fault_capacity_) {
    fault_ring_.push_back(BusFault{ctx.pc, addr, type, status});
    return;
  }
  fault_ring_[fault_next_] = BusFault{ctx.pc, addr, type, status};
  fault_next_ = (fault_next_ + 1) % fault_capacity_;
  ++faults_dropped_;
}

BusStatus MemoryBus::access8(const AccessContext& ctx, AccessType type,
                             Addr addr, std::uint8_t* read_out,
                             std::uint8_t write_value) {
  Region* region = find(addr);
  BusStatus status = BusStatus::kOk;
  if (region == nullptr) {
    status = BusStatus::kUnmapped;
  } else if (type == AccessType::kWrite &&
             region->info.kind == MemoryKind::kRom) {
    status = BusStatus::kReadOnly;
  } else if (controller_ != nullptr && ctx.pc != kHardwarePc &&
             !controller_->allows(ctx, type, addr)) {
    status = BusStatus::kDenied;
  }

  if (status == BusStatus::kOk) {
    const Addr offset = addr - region->info.range.begin;
    if (region->device != nullptr) {
      if (type == AccessType::kRead) {
        *read_out = region->device->read(offset);
      } else if (!region->device->write(offset, write_value)) {
        status = BusStatus::kReadOnly;
      }
    } else {
      if (type == AccessType::kRead) {
        *read_out = region->read_byte(offset);
      } else {
        // A fill-value write past the backed prefix leaves it as it is —
        // the stored bytes would not change — but the page still dirties:
        // attestation tracks write events, not content diffs. NOR flash
        // programs (clears bits only); setting bits needs an erase.
        region->store(offset, &write_value, 1,
                      region->info.kind == MemoryKind::kFlash);
        mark_page_dirty(*region, offset / kPageSize);
      }
    }
  }

  if (status != BusStatus::kOk) {
    record_fault(ctx, addr, type, status);
  }
  return status;
}

BusStatus MemoryBus::read8(const AccessContext& ctx, Addr addr,
                           std::uint8_t& out) {
  return access8(ctx, AccessType::kRead, addr, &out, 0);
}

BusStatus MemoryBus::write8(const AccessContext& ctx, Addr addr,
                            std::uint8_t value) {
  return access8(ctx, AccessType::kWrite, addr, nullptr, value);
}

// Word accessors ride the block paths: one region lookup and one
// access-control window resolution per word instead of one of each per
// byte. Failure semantics are unchanged — the transfer stops at the
// first failing byte (reads deliver nothing, earlier written bytes stay
// written) and exactly one fault is logged at its address, which is
// precisely what the old per-byte loops produced.
BusStatus MemoryBus::read32(const AccessContext& ctx, Addr addr,
                            std::uint32_t& out) {
  std::uint8_t bytes[4];
  const BusStatus s = read_block(ctx, addr, bytes);
  if (s == BusStatus::kOk) out = crypto::load_le32(bytes);
  return s;
}

BusStatus MemoryBus::write32(const AccessContext& ctx, Addr addr,
                             std::uint32_t value) {
  std::uint8_t bytes[4];
  crypto::store_le32(bytes, value);
  return write_block(ctx, addr, bytes);
}

BusStatus MemoryBus::read64(const AccessContext& ctx, Addr addr,
                            std::uint64_t& out) {
  std::uint8_t bytes[8];
  const BusStatus s = read_block(ctx, addr, bytes);
  if (s == BusStatus::kOk) out = crypto::load_le64(bytes);
  return s;
}

BusStatus MemoryBus::write64(const AccessContext& ctx, Addr addr,
                             std::uint64_t value) {
  std::uint8_t bytes[8];
  crypto::store_le64(bytes, value);
  return write_block(ctx, addr, bytes);
}

Addr MemoryBus::admitted_window_end(const AccessContext& ctx,
                                    AccessType type, Addr addr,
                                    Addr limit) const {
  if (controller_ == nullptr || ctx.pc == kHardwarePc) return limit;
  const AccessWindow w = controller_->allows_window(ctx, type, addr, limit);
  return w.allowed ? w.end : 0;
}

// Block transfers walk the request as a sequence of maximal windows:
// each window lies in one region and carries one access-control verdict,
// so the per-byte region find + EA-MPU rule scan collapses to one lookup
// per window and storage bytes move by memcpy. Semantics are those of a
// loop of read8/write8 calls: the transfer stops at the first failing
// byte, exactly one fault is logged for it (with its address), and
// earlier bytes stay transferred.
BusStatus MemoryBus::read_block(const AccessContext& ctx, Addr addr,
                                std::span<std::uint8_t> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const Addr a = addr + static_cast<Addr>(done);
    Region* region = find(a);
    if (region == nullptr) {
      record_fault(ctx, a, AccessType::kRead, BusStatus::kUnmapped);
      return BusStatus::kUnmapped;
    }
    // 64-bit arithmetic: a + remaining may pass the top of the address
    // space; the region end (<= 2^32 - 1) clamps it back into range.
    const Addr span_limit = static_cast<Addr>(std::min<std::uint64_t>(
        region->info.range.end,
        static_cast<std::uint64_t>(a) + (out.size() - done)));
    const Addr span_end =
        admitted_window_end(ctx, AccessType::kRead, a, span_limit);
    if (span_end == 0) {
      record_fault(ctx, a, AccessType::kRead, BusStatus::kDenied);
      return BusStatus::kDenied;
    }
    const std::size_t n = span_end - a;
    const Addr offset = a - region->info.range.begin;
    if (region->device != nullptr) {
      // MMIO reads stay per byte — device registers may be stateful.
      for (std::size_t i = 0; i < n; ++i) {
        out[done + i] = region->device->read(offset + static_cast<Addr>(i));
      }
    } else {
      // Copy page by page; absent pages and unbacked tails deliver the
      // fill byte without being materialized (reads never allocate).
      std::size_t i = 0;
      while (i < n) {
        const std::size_t off = static_cast<std::size_t>(offset) + i;
        const std::size_t chunk =
            std::min<std::size_t>(n - i, kPageSize - off % kPageSize);
        region->read_span(off, chunk, out.data() + done + i);
        i += chunk;
      }
    }
    done += n;
  }
  return BusStatus::kOk;
}

BusStatus MemoryBus::write_block(const AccessContext& ctx, Addr addr,
                                 ByteView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const Addr a = addr + static_cast<Addr>(done);
    Region* region = find(a);
    if (region == nullptr) {
      record_fault(ctx, a, AccessType::kWrite, BusStatus::kUnmapped);
      return BusStatus::kUnmapped;
    }
    // ROM rejects before the access controller is consulted, exactly as
    // in access8.
    if (region->info.kind == MemoryKind::kRom) {
      record_fault(ctx, a, AccessType::kWrite, BusStatus::kReadOnly);
      return BusStatus::kReadOnly;
    }
    const Addr span_limit = static_cast<Addr>(std::min<std::uint64_t>(
        region->info.range.end,
        static_cast<std::uint64_t>(a) + (data.size() - done)));
    const Addr span_end =
        admitted_window_end(ctx, AccessType::kWrite, a, span_limit);
    if (span_end == 0) {
      record_fault(ctx, a, AccessType::kWrite, BusStatus::kDenied);
      return BusStatus::kDenied;
    }
    const std::size_t n = span_end - a;
    const Addr offset = a - region->info.range.begin;
    if (region->device != nullptr) {
      // MMIO writes stay per byte: a read-only register faults at its
      // own address, with the earlier bytes already delivered.
      for (std::size_t i = 0; i < n; ++i) {
        if (!region->device->write(offset + static_cast<Addr>(i),
                                   data[done + i])) {
          record_fault(ctx, a + static_cast<Addr>(i), AccessType::kWrite,
                       BusStatus::kReadOnly);
          return BusStatus::kReadOnly;
        }
      }
    } else {
      // Page by page without the per-byte region/rule lookups; NOR flash
      // keeps its program semantics (clear bits only), and fill bytes
      // past the backed prefix are skipped exactly as in access8, while
      // every spanned page still dirties.
      const bool program = region->info.kind == MemoryKind::kFlash;
      std::size_t i = 0;
      while (i < n) {
        const std::size_t off = static_cast<std::size_t>(offset) + i;
        const std::size_t chunk =
            std::min<std::size_t>(n - i, kPageSize - off % kPageSize);
        region->store(off, data.data() + done + i, chunk, program);
        mark_page_dirty(*region, off / kPageSize);
        i += chunk;
      }
    }
    done += n;
  }
  return BusStatus::kOk;
}

BusStatus MemoryBus::erase_flash_block(const AccessContext& ctx,
                                       Addr addr) {
  Region* region = find(addr);
  BusStatus status = BusStatus::kOk;
  if (region == nullptr) {
    status = BusStatus::kUnmapped;
  } else if (region->info.kind != MemoryKind::kFlash) {
    status = BusStatus::kReadOnly;
  }
  Addr block_begin = 0;
  Addr block_end = 0;
  if (status == BusStatus::kOk) {
    // Block boundaries are relative to the region base.
    const Addr offset = addr - region->info.range.begin;
    block_begin = region->info.range.begin +
                  (offset / kFlashBlockSize) * kFlashBlockSize;
    block_end = std::min(block_begin + kFlashBlockSize,
                         region->info.range.end);
    if (controller_ != nullptr && ctx.pc != kHardwarePc) {
      // Access control per verdict window: any denied byte lies at the
      // start of some denied window, so walking window ends finds it.
      for (Addr a = block_begin; a < block_end;) {
        const AccessWindow w = controller_->allows_window(
            ctx, AccessType::kWrite, a, block_end);
        if (!w.allowed) {
          status = BusStatus::kDenied;
          break;
        }
        a = w.end;
      }
    }
  }
  if (status != BusStatus::kOk) {
    record_fault(ctx, addr, AccessType::kWrite, status);
    return status;
  }
  // kPageSize == kFlashBlockSize and both are relative to the region
  // base, so the erased block is exactly one page: drop the page and let
  // the fill byte (0xff) stand in for the erased contents.
  const std::size_t p =
      (block_begin - region->info.range.begin) / kPageSize;
  region->drop_page(p);
  // An erase mutates storage like any write: the page dirties even when
  // it was already erased (absent).
  mark_page_dirty(*region, p);
  return BusStatus::kOk;
}

void MemoryBus::mark_page_dirty(Region& region, std::size_t p) {
  std::uint64_t& word = region.dirty[p >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (p & 63);
  if ((word & bit) == 0) {
    word |= bit;
    ++dirty_generation_;
  }
}

bool MemoryBus::page_dirty(Addr addr) const {
  const Region* region = find(addr);
  if (region == nullptr || region->device != nullptr) return false;
  return region->page_is_dirty((addr - region->info.range.begin) /
                               kPageSize);
}

std::size_t MemoryBus::dirty_page_count() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    for (const std::uint64_t word : r->dirty) {
      total += static_cast<std::size_t>(std::popcount(word));
    }
  }
  return total;
}

BusStatus MemoryBus::clear_dirty_page(const AccessContext& ctx, Addr addr) {
  Region* region = find(addr);
  if (region == nullptr || region->device != nullptr) {
    record_fault(ctx, addr, AccessType::kWrite, BusStatus::kUnmapped);
    return BusStatus::kUnmapped;
  }
  if (ctx.pc != kHardwarePc && !dirty_authority_.empty() &&
      !dirty_authority_.contains(ctx.pc)) {
    record_fault(ctx, addr, AccessType::kWrite, BusStatus::kDenied);
    return BusStatus::kDenied;
  }
  const std::size_t p = (addr - region->info.range.begin) / kPageSize;
  region->dirty[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  return BusStatus::kOk;
}

void MemoryBus::load_initial(Addr addr, ByteView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const Addr a = addr + static_cast<Addr>(done);
    Region* region = find(a);
    if (region == nullptr || region->device != nullptr) {
      throw std::invalid_argument(
          "MemoryBus::load_initial: target not storage-backed");
    }
    const Addr offset = a - region->info.range.begin;
    const std::size_t n = std::min<std::size_t>(
        data.size() - done, region->info.range.size() - offset);
    std::size_t i = 0;
    while (i < n) {
      const std::size_t off = static_cast<std::size_t>(offset) + i;
      const std::size_t chunk =
          std::min<std::size_t>(n - i, kPageSize - off % kPageSize);
      region->store(off, data.data() + done + i, chunk, /*program=*/false);
      i += chunk;
    }
    done += n;
  }
}

bool MemoryBus::load_initial_shared(Addr page_base,
                                    const std::shared_ptr<Bytes>& page) {
  Region* region = find(page_base);
  if (region == nullptr || region->device != nullptr) return false;
  const Addr offset = page_base - region->info.range.begin;
  if (offset % kPageSize != 0) return false;
  const std::size_t p = offset / kPageSize;
  if (!region->page_absent(p)) return false;
  if (page == nullptr || page->size() != region->page_len(p)) return false;
  region->page_index[p] = static_cast<std::uint32_t>(region->pages.size());
  region->pages.push_back(Page{page, page->data(),
                               static_cast<std::uint32_t>(page->size()),
                               static_cast<std::uint32_t>(p)});
  return true;
}

std::size_t MemoryBus::resident_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    for (const Page& page : r->pages) total += page.backed;
  }
  return total;
}

std::size_t MemoryBus::shared_resident_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    for (const Page& page : r->pages) {
      if (page.owner.use_count() > 1) total += page.backed;
    }
  }
  return total;
}

std::size_t MemoryBus::page_table_bytes() const {
  std::size_t total = 0;
  for (const auto& r : regions_) {
    total += r->page_index.capacity() * sizeof(std::uint32_t) +
             r->pages.capacity() * sizeof(Page) +
             r->dirty.capacity() * sizeof(std::uint64_t);
  }
  return total;
}

}  // namespace ratt::hw
