/**
 * @file
 * Unit tests for the sparse simulated memory image.
 */

#include <gtest/gtest.h>

#include "memsim/sim_memory.hh"

namespace ecdp
{
namespace
{

TEST(SimMemory, UntouchedMemoryReadsZero)
{
    SimMemory mem;
    EXPECT_EQ(mem.read(0x40000000, 4), 0u);
    EXPECT_EQ(mem.read(0xdeadbeec, 8), 0u);
    EXPECT_EQ(mem.pagesTouched(), 0u);
}

TEST(SimMemory, WriteThenReadRoundTrips)
{
    SimMemory mem;
    mem.write(0x40000010, 4, 0x12345678u);
    EXPECT_EQ(mem.read(0x40000010, 4), 0x12345678u);
}

TEST(SimMemory, ReadsAreLittleEndianByByte)
{
    SimMemory mem;
    mem.write(0x40000000, 4, 0x11223344u);
    EXPECT_EQ(mem.read(0x40000000, 1), 0x44u);
    EXPECT_EQ(mem.read(0x40000001, 1), 0x33u);
    EXPECT_EQ(mem.read(0x40000002, 1), 0x22u);
    EXPECT_EQ(mem.read(0x40000003, 1), 0x11u);
}

TEST(SimMemory, PartialOverwriteMergesBytes)
{
    SimMemory mem;
    mem.write(0x40000000, 4, 0xaabbccddu);
    mem.write(0x40000001, 2, 0x1122u);
    EXPECT_EQ(mem.read(0x40000000, 4), 0xaa1122ddu);
}

TEST(SimMemory, EightByteAccesses)
{
    SimMemory mem;
    mem.write(0x40000100, 8, 0x0102030405060708ull);
    EXPECT_EQ(mem.read(0x40000100, 8), 0x0102030405060708ull);
    EXPECT_EQ(mem.read(0x40000104, 4), 0x01020304u);
}

TEST(SimMemory, WriteSpanningPageBoundary)
{
    SimMemory mem;
    Addr boundary = 0x40001000 - 2; // 2 bytes before a page edge
    mem.write(boundary, 4, 0xcafebabeu);
    EXPECT_EQ(mem.read(boundary, 4), 0xcafebabeu);
    EXPECT_EQ(mem.pagesTouched(), 2u);
}

TEST(SimMemory, PointerHelpers)
{
    SimMemory mem;
    mem.writePointer(0x40000020, 0x40001234u);
    EXPECT_EQ(mem.readPointer(0x40000020), 0x40001234u);
}

TEST(SimMemory, ReadBlockCopiesContents)
{
    SimMemory mem;
    for (unsigned i = 0; i < 32; ++i)
        mem.write(0x40000000 + 4 * i, 4, i + 1);
    std::uint8_t buf[128];
    mem.readBlock(0x40000000, buf, sizeof(buf));
    for (unsigned i = 0; i < 32; ++i) {
        std::uint32_t word = 0;
        for (unsigned b = 0; b < 4; ++b)
            word |= std::uint32_t{buf[4 * i + b]} << (8 * b);
        EXPECT_EQ(word, i + 1);
    }
}

TEST(SimMemory, ReadBlockOfUntouchedMemoryIsZero)
{
    SimMemory mem;
    std::uint8_t buf[64];
    buf[0] = 0xff;
    mem.readBlock(0x50000000, buf, sizeof(buf));
    for (unsigned i = 0; i < sizeof(buf); ++i)
        EXPECT_EQ(buf[i], 0u) << "byte " << i;
}

TEST(SimMemory, ReadBlockAcrossPageBoundary)
{
    SimMemory mem;
    Addr base = 0x40001000 - 64;
    mem.write(base, 4, 0x11111111u);
    mem.write(base + 64, 4, 0x22222222u);
    std::uint8_t buf[128];
    mem.readBlock(base, buf, sizeof(buf));
    EXPECT_EQ(buf[0], 0x11);
    EXPECT_EQ(buf[64], 0x22);
}

TEST(SimMemory, CloneIsDeepCopy)
{
    SimMemory mem;
    mem.write(0x40000000, 4, 7u);
    SimMemory copy = mem.clone();
    copy.write(0x40000000, 4, 9u);
    EXPECT_EQ(mem.read(0x40000000, 4), 7u);
    EXPECT_EQ(copy.read(0x40000000, 4), 9u);
}

TEST(SimMemory, ClearDropsEverything)
{
    SimMemory mem;
    mem.write(0x40000000, 4, 7u);
    mem.clear();
    EXPECT_EQ(mem.read(0x40000000, 4), 0u);
    EXPECT_EQ(mem.pagesTouched(), 0u);
}

TEST(SimMemory, FootprintTracksDistinctPages)
{
    SimMemory mem;
    mem.write(0x40000000, 4, 1u);
    mem.write(0x40000004, 4, 1u); // same page
    mem.write(0x40100000, 4, 1u); // different page
    EXPECT_EQ(mem.pagesTouched(), 2u);
    EXPECT_EQ(mem.footprintBytes(), 2 * SimMemory::kPageBytes);
}

TEST(SimMemory, AccessesAtBothEndsOfTheAddressSpace)
{
    SimMemory mem;
    mem.write(0x0, 8, 0x0102030405060708ull);
    mem.write(0xfffffff8, 8, 0x8877665544332211ull);
    EXPECT_EQ(mem.read(0x0, 8), 0x0102030405060708ull);
    EXPECT_EQ(mem.read(0xfffffff8, 8), 0x8877665544332211ull);
    EXPECT_EQ(mem.read(0xffffffff, 1), 0x88u);
    EXPECT_EQ(mem.read(0xfffffffc, 4), 0x88776655u);
    EXPECT_EQ(mem.pagesTouched(), 2u);
    std::uint8_t buf[8];
    mem.readBlock(0xfffffff8, buf, sizeof(buf));
    EXPECT_EQ(buf[0], 0x11);
    EXPECT_EQ(buf[7], 0x88);
}

TEST(SimMemory, AccessWrapsPastTheTopOfTheAddressSpace)
{
    // Byte addresses wrap at 32 bits, so the last two bytes of this
    // write land at 0x0 and 0x1.
    SimMemory mem;
    mem.write(0xfffffffe, 4, 0xaabbccddu);
    EXPECT_EQ(mem.read(0xfffffffe, 4), 0xaabbccddu);
    EXPECT_EQ(mem.read(0x0, 2), 0xaabbu);
    EXPECT_EQ(mem.pagesTouched(), 2u);
}

TEST(SimMemory, AccessAcrossA4MiBRegionBoundary)
{
    // 0x40400000 starts a new 4 MiB region of the page table.
    SimMemory mem;
    const Addr edge = 0x40400000;
    mem.write(edge - 4, 8, 0x1122334455667788ull);
    EXPECT_EQ(mem.read(edge - 4, 8), 0x1122334455667788ull);
    EXPECT_EQ(mem.read(edge - 4, 4), 0x55667788u);
    EXPECT_EQ(mem.read(edge, 4), 0x11223344u);
    EXPECT_EQ(mem.pagesTouched(), 2u);
    std::uint8_t buf[16];
    mem.readBlock(edge - 8, buf, sizeof(buf));
    EXPECT_EQ(buf[3], 0x00);
    EXPECT_EQ(buf[4], 0x88);
    EXPECT_EQ(buf[11], 0x11);
    EXPECT_EQ(buf[12], 0x00);
}

TEST(SimMemory, CloneIsIndependentOfItsSource)
{
    SimMemory mem;
    mem.write(0x40000000, 4, 1u);
    mem.write(0x80000000, 4, 2u);
    SimMemory copy = mem.clone();
    EXPECT_EQ(copy.pagesTouched(), 2u);
    // New pages and overwrites on either side stay on that side.
    mem.write(0x40000000, 4, 3u);
    mem.write(0x40400000, 4, 4u);
    copy.write(0x80000000, 4, 5u);
    copy.write(0xc0000000, 4, 6u);
    EXPECT_EQ(mem.read(0x40000000, 4), 3u);
    EXPECT_EQ(mem.read(0x80000000, 4), 2u);
    EXPECT_EQ(mem.read(0xc0000000, 4), 0u);
    EXPECT_EQ(copy.read(0x40000000, 4), 1u);
    EXPECT_EQ(copy.read(0x80000000, 4), 5u);
    EXPECT_EQ(copy.read(0x40400000, 4), 0u);
    EXPECT_EQ(mem.pagesTouched(), 3u);
    EXPECT_EQ(copy.pagesTouched(), 3u);
}

TEST(SimMemory, PagesTouchedRestartsAfterClear)
{
    SimMemory mem;
    for (std::uint32_t region = 0; region < 4; ++region)
        mem.write(0x40000000 + region * 0x00400000, 4, region + 1);
    EXPECT_EQ(mem.pagesTouched(), 4u);
    mem.clear();
    EXPECT_EQ(mem.pagesTouched(), 0u);
    EXPECT_EQ(mem.footprintBytes(), 0u);
    for (std::uint32_t region = 0; region < 4; ++region)
        EXPECT_EQ(mem.read(0x40000000 + region * 0x00400000, 4), 0u);
    mem.write(0x40400000, 4, 9u);
    EXPECT_EQ(mem.pagesTouched(), 1u);
    EXPECT_EQ(mem.read(0x40400000, 4), 9u);
}

/** Property: every supported access size round-trips at any offset. */
class SimMemorySizeTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SimMemorySizeTest, RoundTripAtVariousOffsets)
{
    const unsigned size = GetParam();
    SimMemory mem;
    const std::uint64_t pattern = 0xf1e2d3c4b5a69788ull;
    const std::uint64_t mask =
        size == 8 ? ~0ull : (1ull << (8 * size)) - 1;
    for (Addr offset : {0u, 1u, 3u, 127u, 4093u}) {
        Addr addr = 0x40000000 + offset.raw();
        mem.write(addr, size, pattern);
        EXPECT_EQ(mem.read(addr, size), pattern & mask)
            << "size " << size << " offset " << offset;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, SimMemorySizeTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace ecdp
