// Lazily-paged bus backing: mapped-but-untouched storage costs nothing,
// pages materialize on first write (filled with the region's power-up
// byte) and back only a prefix of whole lines up to the highest byte
// written, flash erase drops its page, and block transfers stay
// byte-identical to the per-byte reference (bus_reference.hpp) across
// page boundaries and across the backed/unbacked boundary inside a page.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ratt/hw/bus.hpp"
#include "bus_reference.hpp"

namespace ratt::hw {
namespace {

constexpr AccessContext kHw{};  // hardware PC — always admitted

// Block transfers on the window-coalesced path (`bulk`) or through the
// per-byte reference.
BusStatus write_via(MemoryBus& bus, bool bulk, Addr addr, ByteView data) {
  return bulk ? bus.write_block(kHw, addr, data)
              : reference::write_block(bus, kHw, addr, data);
}
BusStatus read_via(MemoryBus& bus, bool bulk, Addr addr,
                   std::span<std::uint8_t> out) {
  return bulk ? bus.read_block(kHw, addr, out)
              : reference::read_block(bus, kHw, addr, out);
}

MemoryBus make_bus() {
  MemoryBus bus;
  bus.map_storage("rom", MemoryKind::kRom, {0x0000'0000, 0x0000'4000});
  bus.map_storage("ram", MemoryKind::kRam, {0x2000'0000, 0x2000'4000});
  bus.map_storage("flash", MemoryKind::kFlash, {0x0800'0000, 0x0810'0000});
  return bus;
}

TEST(BusPaging, UntouchedRegionsReadFillWithoutAllocating) {
  MemoryBus bus = make_bus();
  EXPECT_EQ(bus.resident_bytes(), 0u);
  std::uint8_t b = 0x55;
  ASSERT_EQ(bus.read8(kHw, 0x2000'0123, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x00);
  ASSERT_EQ(bus.read8(kHw, 0x0800'1234, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xff);  // flash powers up erased
  std::vector<std::uint8_t> block(10'000);
  ASSERT_EQ(bus.read_block(kHw, 0x0800'0000, block), BusStatus::kOk);
  for (const std::uint8_t v : block) ASSERT_EQ(v, 0xff);
  // A megabyte of mapped flash read end to end — still zero resident.
  EXPECT_EQ(bus.resident_bytes(), 0u);
}

TEST(BusPaging, WritesMaterializeOnePageAtATime) {
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xab), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);  // one line of the page
  // Same page: the backed prefix grows to cover the page's last byte.
  ASSERT_EQ(bus.write8(kHw, 0x2000'0fff, 0xcd), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u);
  // Next page: one line of it.
  ASSERT_EQ(bus.write8(kHw, 0x2000'1000, 0xef), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4160u);
  // The fill shows through around the written bytes.
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, 0x2000'0001, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x00);
  ASSERT_EQ(bus.read8(kHw, 0x2000'0fff, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xcd);
}

TEST(BusPaging, FlashEraseDropsThePage) {
  MemoryBus bus = make_bus();
  const Addr base = 0x0800'2000;  // second flash block
  ASSERT_EQ(bus.write8(kHw, base + 7, 0x12), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);
  ASSERT_EQ(bus.erase_flash_block(kHw, base + 100), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 0u);
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, base + 7, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xff);
  // NOR program into the recycled block works again.
  ASSERT_EQ(bus.write8(kHw, base + 7, 0x34), BusStatus::kOk);
  ASSERT_EQ(bus.read8(kHw, base + 7, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x34);
}

TEST(BusPaging, PartialLastPageClampsToRegionSize) {
  MemoryBus bus;
  bus.map_storage("tail", MemoryKind::kRam, {0x1000, 0x1000 + 4096 + 100});
  ASSERT_EQ(bus.write8(kHw, 0x1000 + 4096 + 50, 0x77), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 64u);  // one line of the 100-byte page
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, 0x1000 + 4096 + 50, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x77);
  // Its last byte needs two lines, which the region end clamps to 100.
  ASSERT_EQ(bus.write8(kHw, 0x1000 + 4096 + 99, 0x78), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 100u);
}

TEST(BusPaging, BulkPathMatchesBytewiseAcrossPageBoundaries) {
  // A flash program spanning three pages, half of them pre-programmed:
  // bulk fast path and per-byte reference path must produce identical
  // bytes (NOR AND semantics included) and identical resident pages.
  std::vector<std::uint8_t> pattern(3 * 4096 + 123);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>((i * 31) ^ (i >> 7));
  }
  const Addr start = 0x0800'0ffa;  // straddles the first page boundary

  std::vector<std::uint8_t> out[2];
  std::size_t resident[2] = {0, 0};
  int which = 0;
  for (const bool bulk : {true, false}) {
    MemoryBus bus = make_bus();
    // Pre-program part of the middle page so the AND has set bits to
    // clear.
    ASSERT_EQ(bus.write8(kHw, 0x0800'2000, 0x0f), BusStatus::kOk);
    ASSERT_EQ(write_via(bus, bulk, start, pattern), BusStatus::kOk);
    out[which].resize(pattern.size() + 64);
    ASSERT_EQ(read_via(bus, bulk, start - 32, out[which]), BusStatus::kOk);
    resident[which] = bus.resident_bytes();
    ++which;
  }
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(resident[0], resident[1]);
  // The AND happened: the pre-programmed byte keeps only shared bits.
  MemoryBus check = make_bus();
  ASSERT_EQ(check.write8(kHw, 0x0800'2000, 0x0f), BusStatus::kOk);
  ASSERT_EQ(check.write_block(kHw, start, pattern), BusStatus::kOk);
  std::uint8_t b = 0;
  ASSERT_EQ(check.read8(kHw, 0x0800'2000, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x0f & pattern[0x0800'2000 - start]);
}

TEST(BusPaging, DirtyBitsTrackWriteEventsPerPage) {
  MemoryBus bus = make_bus();
  EXPECT_EQ(bus.dirty_page_count(), 0u);
  EXPECT_EQ(bus.dirty_generation(), 0u);
  ASSERT_EQ(bus.write8(kHw, 0x2000'0010, 0xab), BusStatus::kOk);
  EXPECT_TRUE(bus.page_dirty(0x2000'0010));
  EXPECT_FALSE(bus.page_dirty(0x2000'1000));
  EXPECT_EQ(bus.dirty_page_count(), 1u);
  EXPECT_EQ(bus.dirty_generation(), 1u);
  // Re-dirtying an already-dirty page is not a new transition.
  ASSERT_EQ(bus.write8(kHw, 0x2000'0020, 0xcd), BusStatus::kOk);
  EXPECT_EQ(bus.dirty_generation(), 1u);
  // Clearing re-arms the transition.
  ASSERT_EQ(bus.clear_dirty_page(kHw, 0x2000'0010), BusStatus::kOk);
  EXPECT_FALSE(bus.page_dirty(0x2000'0010));
  ASSERT_EQ(bus.write8(kHw, 0x2000'0030, 0xef), BusStatus::kOk);
  EXPECT_EQ(bus.dirty_generation(), 2u);
}

TEST(BusPaging, FillValueWriteToAbsentPageStillMarksDirty) {
  // The fill-skip optimization must never skip the dirty mark: writing
  // the power-up byte to an untouched page is a write EVENT even though
  // the content is unchanged — an attestation layer that trusts the
  // bitmap would otherwise never re-examine the page.
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x2000'0040, 0x00), BusStatus::kOk);  // RAM fill
  EXPECT_EQ(bus.resident_bytes(), 0u);  // no materialization...
  EXPECT_TRUE(bus.page_dirty(0x2000'0040));  // ...but the event is recorded
  ASSERT_EQ(bus.write8(kHw, 0x0800'0040, 0xff), BusStatus::kOk);  // NOR no-op
  EXPECT_EQ(bus.resident_bytes(), 0u);
  EXPECT_TRUE(bus.page_dirty(0x0800'0040));
}

TEST(BusPaging, BulkFillWriteSpanningAbsentPagesStillMarksDirty) {
  // Regression: a bulk write_block of all-fill bytes spanning unallocated
  // pages used to be a candidate for a silent "wrote the fill value"
  // skip. It must mark every spanned page dirty, on both bus paths.
  const std::vector<std::uint8_t> zeros(4096 + 512, 0x00);
  for (const bool bulk : {true, false}) {
    MemoryBus bus = make_bus();
    ASSERT_EQ(write_via(bus, bulk, 0x2000'0e00, zeros), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 0u) << "bulk=" << bulk;
    EXPECT_TRUE(bus.page_dirty(0x2000'0e00)) << "bulk=" << bulk;
    EXPECT_TRUE(bus.page_dirty(0x2000'1000)) << "bulk=" << bulk;
    EXPECT_EQ(bus.dirty_page_count(), 2u) << "bulk=" << bulk;
  }
}

TEST(BusPaging, WriteStraddlingPageBoundaryDirtiesBothPages) {
  const std::vector<std::uint8_t> data{0x11, 0x22, 0x33, 0x44};
  for (const bool bulk : {true, false}) {
    MemoryBus bus = make_bus();
    ASSERT_EQ(write_via(bus, bulk, 0x2000'0ffe, data), BusStatus::kOk);
    EXPECT_TRUE(bus.page_dirty(0x2000'0ffe)) << "bulk=" << bulk;
    EXPECT_TRUE(bus.page_dirty(0x2000'1000)) << "bulk=" << bulk;
    EXPECT_EQ(bus.dirty_page_count(), 2u) << "bulk=" << bulk;
  }
}

TEST(BusPaging, FlashEraseMarksThePageDirty) {
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x0800'2000, 0x12), BusStatus::kOk);
  ASSERT_EQ(bus.clear_dirty_page(kHw, 0x0800'2000), BusStatus::kOk);
  ASSERT_EQ(bus.erase_flash_block(kHw, 0x0800'2000), BusStatus::kOk);
  EXPECT_TRUE(bus.page_dirty(0x0800'2000));
}

TEST(BusPaging, DirtyAuthorityRestrictsClearing) {
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xab), BusStatus::kOk);
  // Open mode: anyone may clear.
  ASSERT_EQ(bus.clear_dirty_page(AccessContext{0x0800'0000}, 0x2000'0000),
            BusStatus::kOk);
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xcd), BusStatus::kOk);
  // Authority installed: only code running from the anchor region (or
  // hardware) may clear; everyone else is denied and the bit survives.
  bus.set_dirty_authority({0x0000'0000, 0x0000'1000});
  EXPECT_EQ(bus.clear_dirty_page(AccessContext{0x0800'0000}, 0x2000'0000),
            BusStatus::kDenied);
  EXPECT_TRUE(bus.page_dirty(0x2000'0000));
  ASSERT_EQ(bus.clear_dirty_page(AccessContext{0x0000'0100}, 0x2000'0000),
            BusStatus::kOk);
  EXPECT_FALSE(bus.page_dirty(0x2000'0000));
  // Hardware is always admitted.
  ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xef), BusStatus::kOk);
  EXPECT_EQ(bus.clear_dirty_page(kHw, 0x2000'0000), BusStatus::kOk);
  // Unmapped / MMIO targets fault.
  EXPECT_EQ(bus.clear_dirty_page(kHw, 0xdead'0000), BusStatus::kUnmapped);
}

TEST(BusPaging, LoadInitialMaterializesRomPages) {
  MemoryBus bus = make_bus();
  const std::vector<std::uint8_t> image(5000, 0x5a);
  bus.load_initial(0x0000'0100, image);
  // Two ROM pages touched: the first backed in full (the image reaches
  // its end), the second up to 1160 bytes, rounded to 2048.
  EXPECT_EQ(bus.resident_bytes(), 6144u);
  // Manufacture-time provisioning is not a runtime write event.
  EXPECT_EQ(bus.dirty_page_count(), 0u);
  std::vector<std::uint8_t> back(5000);
  ASSERT_EQ(bus.read_block(kHw, 0x0000'0100, back), BusStatus::kOk);
  EXPECT_EQ(back, image);
  // ROM stays write-protected on the paged path.
  EXPECT_EQ(bus.write8(AccessContext{0x0800'0000}, 0x0000'0100, 0x00),
            BusStatus::kReadOnly);
}

TEST(BusPaging, ReadsAcrossTheBackedPrefixReturnFill) {
  for (const bool bulk : {true, false}) {
    SCOPED_TRACE(bulk ? "bulk" : "bytewise");
    MemoryBus bus = make_bus();
    ASSERT_EQ(bus.write8(kHw, 0x2000'0010, 0xab), BusStatus::kOk);
    ASSERT_EQ(bus.write8(kHw, 0x0800'1020, 0x12), BusStatus::kOk);
    ASSERT_EQ(bus.resident_bytes(), 128u);  // one line in each region
    // Just past the single backed line: the fill byte.
    std::uint8_t b = 0x55;
    ASSERT_EQ(bus.read8(kHw, 0x2000'0040, b), BusStatus::kOk);
    EXPECT_EQ(b, 0x00);
    ASSERT_EQ(bus.read8(kHw, 0x0800'1040, b), BusStatus::kOk);
    EXPECT_EQ(b, 0xff);
    ASSERT_EQ(bus.read8(kHw, 0x0800'103f, b), BusStatus::kOk);
    EXPECT_EQ(b, 0xff);  // backed, but never written: still erased
    // A block from inside the prefix, across its end and on into the
    // next (absent) page.
    std::vector<std::uint8_t> ram(4096 + 64, 0x55);
    ASSERT_EQ(read_via(bus, bulk, 0x2000'0000, ram), BusStatus::kOk);
    for (std::size_t i = 0; i < ram.size(); ++i) {
      ASSERT_EQ(ram[i], i == 0x10 ? 0xab : 0x00) << "i=" << i;
    }
    std::vector<std::uint8_t> flash(200, 0x55);
    ASSERT_EQ(read_via(bus, bulk, 0x0800'1000, flash), BusStatus::kOk);
    for (std::size_t i = 0; i < flash.size(); ++i) {
      ASSERT_EQ(flash[i], i == 0x20 ? 0x12 : 0xff) << "i=" << i;
    }
    std::uint32_t w = 0;
    ASSERT_EQ(bus.read32(kHw, 0x2000'003e, w), BusStatus::kOk);
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(bus.resident_bytes(), 128u);  // reads never allocate
  }
}

TEST(BusPaging, WritePastThePrefixGrowsItAndKeepsEarlierBytes) {
  for (const bool bulk : {true, false}) {
    SCOPED_TRACE(bulk ? "bulk" : "bytewise");
    MemoryBus bus = make_bus();
    const std::vector<std::uint8_t> head{1, 2, 3, 4, 5, 6, 7, 8};
    ASSERT_EQ(write_via(bus, bulk, 0x2000'0038, head), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 64u);
    // Byte 768 needs 13 lines; the prefix grows to the next power of
    // two, 16 lines.
    const std::vector<std::uint8_t> far{0xa1, 0xa2, 0xa3};
    ASSERT_EQ(write_via(bus, bulk, 0x2000'02fe, far), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 1024u);
    std::vector<std::uint8_t> back(0x400);
    ASSERT_EQ(read_via(bus, bulk, 0x2000'0000, back), BusStatus::kOk);
    for (std::size_t i = 0; i < back.size(); ++i) {
      std::uint8_t want = 0x00;
      if (i >= 0x38 && i < 0x40) want = head[i - 0x38];
      if (i >= 0x2fe && i < 0x301) want = far[i - 0x2fe];
      ASSERT_EQ(back[i], want) << "i=" << i;
    }
    // The page's last byte backs it in full, and no further.
    ASSERT_EQ(bus.write8(kHw, 0x2000'0fff, 0x99), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 4096u);
    std::uint8_t b = 0;
    ASSERT_EQ(bus.read8(kHw, 0x2000'003c, b), BusStatus::kOk);
    EXPECT_EQ(b, 5);
  }
}

TEST(BusPaging, FlashProgramPastThePrefixAndsAgainstErased) {
  for (const bool bulk : {true, false}) {
    SCOPED_TRACE(bulk ? "bulk" : "bytewise");
    MemoryBus bus = make_bus();
    const Addr base = 0x0800'3000;
    ASSERT_EQ(bus.write8(kHw, base, 0x0f), BusStatus::kOk);
    ASSERT_EQ(bus.resident_bytes(), 64u);
    // Programming past the prefix: the new lines start erased, so the
    // programmed value lands as is (0xff & v == v).
    const std::vector<std::uint8_t> data{0x5a, 0xff, 0x3c};
    ASSERT_EQ(write_via(bus, bulk, base + 200, data), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 256u);
    std::vector<std::uint8_t> back(3);
    ASSERT_EQ(read_via(bus, bulk, base + 200, back), BusStatus::kOk);
    EXPECT_EQ(back, data);
    // A second program clears bits only.
    ASSERT_EQ(bus.write8(kHw, base + 200, 0x0f), BusStatus::kOk);
    std::uint8_t b = 0;
    ASSERT_EQ(bus.read8(kHw, base + 200, b), BusStatus::kOk);
    EXPECT_EQ(b, 0x0a);
    ASSERT_EQ(bus.read8(kHw, base, b), BusStatus::kOk);
    EXPECT_EQ(b, 0x0f);
    // Backed-but-unwritten bytes between the two stay erased.
    ASSERT_EQ(bus.read8(kHw, base + 100, b), BusStatus::kOk);
    EXPECT_EQ(b, 0xff);
  }
}

TEST(BusPaging, CowCloneOfSharedPageThenWriteKeepsTheTemplate) {
  auto page = std::make_shared<crypto::Bytes>(4096);
  for (std::size_t i = 0; i < page->size(); ++i) {
    (*page)[i] = static_cast<std::uint8_t>(0x40 + i * 13);
  }
  const crypto::Bytes original = *page;
  MemoryBus bus = make_bus();
  ASSERT_TRUE(bus.load_initial_shared(0x2000'1000, page));
  // The clone copies the whole shared page; writing its last byte and
  // then its first needs no growth past the full page.
  ASSERT_EQ(bus.write8(kHw, 0x2000'1fff, 0x00), BusStatus::kOk);
  EXPECT_EQ(bus.shared_resident_bytes(), 0u);
  EXPECT_EQ(bus.resident_bytes(), 4096u);
  ASSERT_EQ(bus.write8(kHw, 0x2000'1000, 0x01), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u);
  EXPECT_EQ(*page, original);  // the template never saw either write
  std::vector<std::uint8_t> back(4096);
  ASSERT_EQ(bus.read_block(kHw, 0x2000'1000, back), BusStatus::kOk);
  for (std::size_t i = 1; i + 1 < back.size(); ++i) {
    ASSERT_EQ(back[i], original[i]) << "i=" << i;
  }
  EXPECT_EQ(back.front(), 0x01);
  EXPECT_EQ(back.back(), 0x00);
}

TEST(BusPaging, EraseOfAPartlyBackedPage) {
  MemoryBus bus = make_bus();
  ASSERT_EQ(bus.write8(kHw, 0x0800'1005, 0x12), BusStatus::kOk);
  ASSERT_EQ(bus.write8(kHw, 0x0800'2100, 0x34), BusStatus::kOk);
  ASSERT_EQ(bus.resident_bytes(), 64u + 512u);
  ASSERT_EQ(bus.clear_dirty_page(kHw, 0x0800'1000), BusStatus::kOk);
  // Erase the first page: the second moves into its slot.
  ASSERT_EQ(bus.erase_flash_block(kHw, 0x0800'1000), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 512u);
  EXPECT_TRUE(bus.page_dirty(0x0800'1000));
  std::vector<std::uint8_t> block(4096);
  ASSERT_EQ(bus.read_block(kHw, 0x0800'1000, block), BusStatus::kOk);
  for (const std::uint8_t v : block) ASSERT_EQ(v, 0xff);
  std::uint8_t b = 0;
  ASSERT_EQ(bus.read8(kHw, 0x0800'2100, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x34);
  // Both pages still take writes after the move.
  ASSERT_EQ(bus.write8(kHw, 0x0800'2fff, 0x56), BusStatus::kOk);
  ASSERT_EQ(bus.write8(kHw, 0x0800'1001, 0x78), BusStatus::kOk);
  EXPECT_EQ(bus.resident_bytes(), 4096u + 64u);
  ASSERT_EQ(bus.read8(kHw, 0x0800'2100, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x34);
  ASSERT_EQ(bus.read8(kHw, 0x0800'1001, b), BusStatus::kOk);
  EXPECT_EQ(b, 0x78);
  ASSERT_EQ(bus.read8(kHw, 0x0800'1005, b), BusStatus::kOk);
  EXPECT_EQ(b, 0xff);
}

TEST(BusPaging, FillWritePastThePrefixMarksDirtyWithoutGrowing) {
  const std::vector<std::uint8_t> zeros(1000, 0x00);
  const std::vector<std::uint8_t> ones(1000, 0xff);
  for (const bool bulk : {true, false}) {
    SCOPED_TRACE(bulk ? "bulk" : "bytewise");
    MemoryBus bus = make_bus();
    ASSERT_EQ(bus.write8(kHw, 0x2000'0000, 0xab), BusStatus::kOk);
    ASSERT_EQ(bus.write8(kHw, 0x0800'0000, 0x00), BusStatus::kOk);
    ASSERT_EQ(bus.clear_dirty_page(kHw, 0x2000'0000), BusStatus::kOk);
    ASSERT_EQ(bus.clear_dirty_page(kHw, 0x0800'0000), BusStatus::kOk);
    ASSERT_EQ(bus.resident_bytes(), 128u);
    ASSERT_EQ(bus.write8(kHw, 0x2000'0800, 0x00), BusStatus::kOk);
    ASSERT_EQ(write_via(bus, bulk, 0x2000'0100, zeros), BusStatus::kOk);
    ASSERT_EQ(bus.write8(kHw, 0x0800'0800, 0xff), BusStatus::kOk);
    ASSERT_EQ(write_via(bus, bulk, 0x0800'0100, ones), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 128u);
    EXPECT_TRUE(bus.page_dirty(0x2000'0000));
    EXPECT_TRUE(bus.page_dirty(0x0800'0000));
    // A fill write that starts inside the prefix still stores the
    // part inside it and grows nothing.
    ASSERT_EQ(write_via(bus, bulk, 0x2000'0000, zeros), BusStatus::kOk);
    EXPECT_EQ(bus.resident_bytes(), 128u);
    std::uint8_t b = 0x55;
    ASSERT_EQ(bus.read8(kHw, 0x2000'0000, b), BusStatus::kOk);
    EXPECT_EQ(b, 0x00);
  }
}

}  // namespace
}  // namespace ratt::hw
