// The MCU memory bus: address decoding, region kinds, PC-aware access
// control, and a fault log.
//
// Every software component in the simulation (trusted attestation code,
// application, malware) touches memory exclusively through this bus,
// passing the program counter of its code region. The execution-aware
// memory protection unit (EA-MPU, eampu.hpp) is consulted on every access,
// which is exactly how the paper's protections for K_Attest, counter_R and
// the clock are enforced (Sec. 6.1-6.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ratt/crypto/bytes.hpp"
#include "ratt/hw/addr.hpp"

namespace ratt::hw {

using crypto::Bytes;
using crypto::ByteView;

enum class MemoryKind : std::uint8_t {
  kRom,    // write attempts always fail (hardware)
  kRam,
  kFlash,  // NOR semantics: program clears bits (AND), erase sets a whole
           // block to 0xff; erased state is 0xff
  kMmio,   // backed by a device, not by storage
};

std::string to_string(MemoryKind kind);

enum class AccessType : std::uint8_t { kRead, kWrite };

enum class BusStatus : std::uint8_t {
  kOk,
  kUnmapped,    // no region decodes this address
  kReadOnly,    // write to ROM (or a read-only MMIO register)
  kDenied,      // blocked by the access controller (EA-MPU)
};

std::string to_string(BusStatus status);

/// The bus tags every access with the program counter of the initiator.
/// kHardwarePc marks accesses made by hardware itself (interrupt dispatch,
/// timer update); the access controller always admits those.
inline constexpr Addr kHardwarePc = 0xffffffffu;

struct AccessContext {
  Addr pc = kHardwarePc;
};

/// A memory-mapped device: reads/writes at offsets within its region.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;

  virtual std::string name() const = 0;

  /// Byte read at `offset`; MMIO reads always succeed within the region.
  virtual std::uint8_t read(Addr offset) = 0;

  /// Byte write at `offset`; returns false if the register is read-only
  /// (surfaced to the initiator as BusStatus::kReadOnly).
  virtual bool write(Addr offset, std::uint8_t value) = 0;
};

/// Verdict for a contiguous window of addresses: `allowed` holds for
/// every address in [addr, end). Lets the bus resolve access control
/// once per window instead of once per byte on bulk transfers.
struct AccessWindow {
  bool allowed = false;
  Addr end = 0;  // exclusive; > the queried addr, <= the queried limit
};

/// PC-aware access policy; implemented by the EA-MPU.
class AccessController {
 public:
  virtual ~AccessController() = default;

  /// Whether `ctx.pc` may perform `type` at `addr`.
  virtual bool allows(const AccessContext& ctx, AccessType type,
                      Addr addr) const = 0;

  /// The verdict at `addr` plus the largest `end <= limit` such that the
  /// verdict is constant over [addr, end). The conservative default
  /// answers one byte at a time; the EA-MPU overrides it with a
  /// rule-boundary scan. Requires addr < limit.
  virtual AccessWindow allows_window(const AccessContext& ctx,
                                     AccessType type, Addr addr,
                                     Addr limit) const {
    (void)limit;
    return AccessWindow{allows(ctx, type, addr), addr + 1};
  }
};

/// One entry in the bus fault log.
struct BusFault {
  Addr pc = 0;
  Addr addr = 0;
  AccessType type = AccessType::kRead;
  BusStatus status = BusStatus::kOk;
};

/// Address decoder + storage + policy enforcement point.
class MemoryBus {
 public:
  /// Map a storage-backed region (ROM/RAM/Flash). Throws on overlap.
  void map_storage(std::string name, MemoryKind kind, AddrRange range);

  /// Map a device-backed region. The device must outlive the bus.
  void map_device(std::string name, AddrRange range, MmioDevice& device);

  /// Install (or clear) the access controller consulted on every access.
  void set_access_controller(const AccessController* controller) {
    controller_ = controller;
  }

  // -- Byte and word accessors. Word accessors are little-endian and fail
  //    atomically: on any non-Ok status no bytes are transferred.
  BusStatus read8(const AccessContext& ctx, Addr addr, std::uint8_t& out);
  BusStatus write8(const AccessContext& ctx, Addr addr, std::uint8_t value);
  BusStatus read32(const AccessContext& ctx, Addr addr, std::uint32_t& out);
  BusStatus write32(const AccessContext& ctx, Addr addr, std::uint32_t value);
  BusStatus read64(const AccessContext& ctx, Addr addr, std::uint64_t& out);
  BusStatus write64(const AccessContext& ctx, Addr addr, std::uint64_t value);

  /// Bulk read of `out.size()` bytes starting at `addr`. Stops at the first
  /// failing byte and reports its status; `out` is only valid on kOk.
  /// Block transfers are window-coalesced: the (region, EA-MPU verdict)
  /// pair is resolved once per maximal window and storage bytes move by
  /// memcpy, with the same statuses, storage mutations and fault log as
  /// a loop of read8/write8 calls (tests/hw/bus_bulk_test.cpp).
  BusStatus read_block(const AccessContext& ctx, Addr addr,
                       std::span<std::uint8_t> out);

  /// Bulk write; stops at the first failing byte (earlier bytes stay
  /// written, as on real hardware).
  BusStatus write_block(const AccessContext& ctx, Addr addr, ByteView data);

  /// NOR-flash erase granularity.
  static constexpr Addr kFlashBlockSize = 4096;

  /// Erase the flash block containing `addr` (all bytes to 0xff). Fails
  /// with kReadOnly on non-flash regions; the access controller must
  /// grant write access to every byte of the block.
  BusStatus erase_flash_block(const AccessContext& ctx, Addr addr);

  /// Load initial contents into a storage region, bypassing both the
  /// access controller and ROM read-only-ness. For ROM images and secure
  /// boot only — never reachable from simulated software.
  void load_initial(Addr addr, ByteView data);

  /// Install a prepared full page by shared reference instead of
  /// copying: the fleet's secure-boot fast path builds each segment page
  /// once per template and every identically-mapped device aliases it,
  /// so a thousand devices booting the same image share one physical
  /// copy until somebody writes it (copy-on-write — the first mutating
  /// access clones a private page). Returns false and installs nothing
  /// unless `page_base` starts a page of a storage region, that page is
  /// still absent, and `page->size()` equals the page's length; the
  /// caller falls back to load_initial.
  bool load_initial_shared(Addr page_base,
                           const std::shared_ptr<Bytes>& page);

  /// Region lookup for introspection; nullptr if unmapped.
  struct RegionInfo {
    std::string name;
    MemoryKind kind;
    AddrRange range;
  };
  const RegionInfo* region_at(Addr addr) const;
  std::vector<RegionInfo> regions() const;

  /// The fault log is a bounded ring of the most recent faults: a
  /// sustained adversary flood overwrites the oldest entries instead of
  /// growing the log without limit. Dropped (overwritten) entries are
  /// counted so observability can surface the flood's true size.
  static constexpr std::size_t kDefaultFaultCapacity = 256;

  /// Resize the ring (>= 1); existing entries and counters are cleared.
  void set_fault_capacity(std::size_t capacity);
  std::size_t fault_capacity() const { return fault_capacity_; }

  /// The retained faults, oldest first (at most fault_capacity()).
  std::vector<BusFault> faults() const;
  /// Faults ever logged, including overwritten ones.
  std::uint64_t faults_total() const { return faults_total_; }
  /// Faults lost to ring overwrite since the last clear_faults().
  std::uint64_t faults_dropped() const { return faults_dropped_; }
  void clear_faults();

  /// Bytes of backing store actually allocated: the backed prefix of
  /// every materialized page, summed over all storage regions.
  /// Mapped-but-untouched address space costs only its page table, which
  /// is what lets a mostly-idle million-device fleet map a megabyte of
  /// flash per device without buying the RAM, and a page written only
  /// near its start costs a few lines, not 4 KB.
  /// Pages aliased from a shared template count at full size here; see
  /// shared_resident_bytes() for the portion a fleet report should
  /// amortize across the devices referencing the same physical copy.
  std::size_t resident_bytes() const;

  /// The subset of resident_bytes() living in pages this bus shares with
  /// other owners (the fleet template and sibling devices). Zero once
  /// every shared page has been copy-on-write cloned.
  std::size_t shared_resident_bytes() const;

  /// Heap bytes of the paging metadata itself: page-index slots, dense
  /// page entries and dirty bitmaps. The honest remainder of a
  /// per-device footprint report — this is what a mapped-but-untouched
  /// region actually costs.
  std::size_t page_table_bytes() const;

  // -- Dirty-page tracking (incremental attestation, DESIGN.md §4i).
  //    Every successful storage mutation — byte write, bulk write, flash
  //    program or erase — marks its page dirty, including writes of the
  //    fill value to a not-yet-materialized page (the write *event* is
  //    what attestation cares about, not whether the stored bytes
  //    changed). load_initial() is manufacture/boot provisioning and does
  //    not mark. Dirty bits are cleared only through clear_dirty_page(),
  //    which the dirty authority restricts to the trust anchor's PC.

  /// Whether the page containing `addr` is dirty. False for unmapped or
  /// device-backed addresses (MMIO has no storage to track).
  bool page_dirty(Addr addr) const;

  /// Total dirty pages across all storage regions.
  std::size_t dirty_page_count() const;

  /// Monotone counter bumped on every clean->dirty page transition. A
  /// snapshot of it tells an observer whether *any* page dirtied since,
  /// without walking the bitmaps.
  std::uint64_t dirty_generation() const { return dirty_generation_; }

  /// Restrict clear_dirty_page() to initiators whose PC lies in `code`
  /// (the trust anchor's code region). kHardwarePc is always admitted.
  /// An empty range (the default) leaves clearing open to everyone —
  /// the naive configuration the rollback regression suite attacks.
  void set_dirty_authority(AddrRange code) { dirty_authority_ = code; }
  AddrRange dirty_authority() const { return dirty_authority_; }

  /// Clear the dirty bit of the page containing `addr`. kUnmapped for
  /// unmapped or MMIO addresses, kDenied when a non-empty authority does
  /// not cover `ctx.pc`; both are logged as write faults at `addr`.
  BusStatus clear_dirty_page(const AccessContext& ctx, Addr addr);

 private:
  /// Page granularity of the lazily-allocated backing store. Equal to the
  /// flash erase block, so an erase drops exactly one page.
  static constexpr std::size_t kPageSize = 4096;
  static_assert(kPageSize == static_cast<std::size_t>(kFlashBlockSize));

  /// Backing granularity inside a page: a private page stores a prefix
  /// of whole lines.
  static constexpr std::size_t kLineSize = 64;

  /// One materialized page. `owner` keeps the bytes alive and is
  /// shared_ptr so a fleet template can alias one physical page into
  /// thousands of buses; use_count > 1 means somebody else also holds it
  /// and a write must clone first. `data` caches owner->data(). Only the
  /// prefix [0, backed) is stored: bytes at or past `backed` read as the
  /// region's fill byte.
  struct Page {
    std::shared_ptr<Bytes> owner;
    std::uint8_t* data = nullptr;
    std::uint32_t backed = 0;
    std::uint32_t page_no = 0;  // the page_index slot pointing here
  };

  struct Region {
    RegionInfo info;
    // Storage-backed regions are paged sparsely: `page_index` holds one
    // 32-bit slot per page of address space (kNoPage = absent) pointing
    // into the dense `pages`, and each Page names its slot so an erase
    // can drop a page by swapping with the last entry. Absent pages, and
    // the unbacked tail of a present one, read as `fill` (0xff for
    // erased flash, 0x00 for ROM/RAM — exactly the power-up contents).
    // A private page backs a power-of-two number of 64-byte lines
    // covering the highest byte ever written, so sequential writes grow
    // it geometrically and the size depends only on that byte, never on
    // how the writes were split; it is capped at the page length (the
    // last page is clamped to the region size). A mapped-but-untouched
    // 512 KB region therefore costs 4 bytes per page, and an 8-byte
    // counter near the start of a page costs a few lines, not 4 KB.
    static constexpr std::uint32_t kNoPage = 0xffffffffu;
    std::vector<std::uint32_t> page_index;  // one slot per page of space
    std::vector<Page> pages;                // materialized pages, dense
    std::uint8_t fill = 0x00;
    MmioDevice* device = nullptr;  // device-backed regions
    // One bit per page, set on every successful write to the page and
    // cleared only via MemoryBus::clear_dirty_page.
    std::vector<std::uint64_t> dirty;

    bool page_is_dirty(std::size_t p) const {
      return ((dirty[p >> 6] >> (p & 63)) & 1) != 0;
    }

    std::size_t page_len(std::size_t p) const {
      return std::min<std::size_t>(kPageSize,
                                   info.range.size() - p * kPageSize);
    }
    bool page_absent(std::size_t p) const {
      return page_index[p] == kNoPage;
    }
    /// The materialized page holding slot `p`, or nullptr if absent.
    const Page* page_at(std::size_t p) const {
      const std::uint32_t idx = page_index[p];
      return idx == kNoPage ? nullptr : &pages[idx];
    }
    std::uint8_t read_byte(Addr offset) const {
      const Page* page = page_at(offset / kPageSize);
      const std::size_t in_page = offset % kPageSize;
      return page != nullptr && in_page < page->backed ? page->data[in_page]
                                                       : fill;
    }
    /// Copy `n` bytes at region offset `off` (all within one page) to
    /// `dst`: the backed part by memcpy, the rest as `fill`. Reads never
    /// allocate.
    void read_span(std::size_t off, std::size_t n, std::uint8_t* dst) const;
    /// Page `p`'s data for WRITING, materialized if absent and backed up
    /// to at least `end` (new bytes hold `fill`). A page aliased from the
    /// fleet template is copy-on-write cloned here, and never resized in
    /// place while shared, so the caller always gets a privately-owned
    /// page it may mutate.
    std::uint8_t* touch_page(std::size_t p, std::size_t end);
    /// Store `n` bytes from `src` at region offset `off` (all within one
    /// page); `program` ANDs them in (NOR flash) instead of copying.
    /// Trailing bytes that land past the backed prefix and equal the
    /// fill byte change nothing and are not stored — a fill-only write
    /// past the prefix allocates nothing. (For NOR flash the fill is
    /// 0xff, and 0xff & v == 0xff exactly when v == 0xff.)
    void store(std::size_t off, const std::uint8_t* src, std::size_t n,
               bool program);
    /// Release page `p`'s backing store (flash erase): the last page
    /// entry swaps into the vacated slot so `pages` stays dense.
    void drop_page(std::size_t p);
  };

  Region* find(Addr addr);
  const Region* find(Addr addr) const;
  void check_overlap(const AddrRange& range, const std::string& name) const;
  BusStatus access8(const AccessContext& ctx, AccessType type, Addr addr,
                    std::uint8_t* read_out, std::uint8_t write_value);
  void record_fault(const AccessContext& ctx, Addr addr, AccessType type,
                    BusStatus status);
  /// Resolves access control for [addr, limit): either the full span is
  /// admitted (hardware PC / no controller), or the controller's window
  /// verdict applies. Returns the allowed window end, or 0 on denial.
  Addr admitted_window_end(const AccessContext& ctx, AccessType type,
                           Addr addr, Addr limit) const;
  /// Set page `p`'s dirty bit; bumps dirty_generation_ on a clean->dirty
  /// transition.
  void mark_page_dirty(Region& region, std::size_t p);

  std::vector<std::unique_ptr<Region>> regions_;
  const AccessController* controller_ = nullptr;
  std::vector<BusFault> fault_ring_;
  std::size_t fault_capacity_ = kDefaultFaultCapacity;
  std::size_t fault_next_ = 0;  // ring write position once full
  std::uint64_t faults_total_ = 0;
  std::uint64_t faults_dropped_ = 0;
  std::uint64_t dirty_generation_ = 0;
  AddrRange dirty_authority_{};  // empty = clearing open to everyone
};

}  // namespace ratt::hw
