/**
 * @file
 * Unit tests for content-directed prefetching, the ECDP hint
 * filtering, and the GRP-style coarse gating.
 */

#include <gtest/gtest.h>

#include "prefetch/cdp.hh"

namespace ecdp
{
namespace
{

constexpr Addr kBlock = 0x40001000;

/** Block image with pointer values planted at word slots. */
struct BlockImage
{
    std::uint8_t bytes[128] = {};

    void word(unsigned slot, std::uint32_t value)
    {
        for (unsigned b = 0; b < 4; ++b)
            bytes[slot * 4 + b] =
                static_cast<std::uint8_t>(value >> (8 * b));
    }
};

ContentDirectedPrefetcher::ScanContext
demandCtx(Addr pc = 0x1000, unsigned byte_offset = 0)
{
    ContentDirectedPrefetcher::ScanContext ctx;
    ctx.demandFill = true;
    ctx.loadPc = pc;
    ctx.accessByteOffset = byte_offset;
    ctx.fillDepth = 0;
    return ctx;
}

TEST(Cdp, IdentifiesPointerByCompareBits)
{
    ContentDirectedPrefetcher cdp(8, 128);
    EXPECT_TRUE(cdp.isPointerCandidate(kBlock, 0x40abcdefu));
    EXPECT_FALSE(cdp.isPointerCandidate(kBlock, 0x41abcdefu));
    EXPECT_FALSE(cdp.isPointerCandidate(kBlock, 0x00000007u));
}

TEST(Cdp, ZeroIsNeverAPointer)
{
    ContentDirectedPrefetcher cdp(8, 128);
    EXPECT_FALSE(cdp.isPointerCandidate(kBlock, 0));
}

TEST(Cdp, ScanFindsAllPointersWithoutFilter)
{
    ContentDirectedPrefetcher cdp(8, 128);
    BlockImage img;
    img.word(2, 0x40002000);
    img.word(9, 0x40003000);
    img.word(12, 0x00001234); // not a pointer
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].blockAddr, 0x40002000u);
    EXPECT_EQ(out[1].blockAddr, 0x40003000u);
    EXPECT_EQ(out[0].depth, 1u);
}

TEST(Cdp, TargetsAreBlockAligned)
{
    ContentDirectedPrefetcher cdp(8, 128);
    BlockImage img;
    img.word(0, 0x4000207c); // mid-block pointer
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blockAddr, 0x40002000u);
}

TEST(Cdp, SelfPointersAreSkipped)
{
    ContentDirectedPrefetcher cdp(8, 128);
    BlockImage img;
    img.word(3, (kBlock + 8).raw()); // points into its own block
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(), out);
    EXPECT_TRUE(out.empty());
}

TEST(Cdp, DuplicateTargetsAreDeduplicated)
{
    ContentDirectedPrefetcher cdp(8, 128);
    BlockImage img;
    img.word(1, 0x40002000);
    img.word(5, 0x40002040); // same target block
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(), out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(Cdp, DemandScanAttributesPgRelativeToAccessedWord)
{
    ContentDirectedPrefetcher cdp(8, 128);
    BlockImage img;
    img.word(5, 0x40002000);
    std::vector<PrefetchRequest> out;
    // The load accessed byte 12 (word 3): the pointer at word 5 is at
    // slot offset +2.
    cdp.scan(kBlock, img.bytes, demandCtx(0x1234, 12), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].pgValid);
    EXPECT_EQ(out[0].pg.loadPc, 0x1234u);
    EXPECT_EQ(out[0].pg.slot, 2);
}

TEST(Cdp, NegativeSlotOffsets)
{
    ContentDirectedPrefetcher cdp(8, 128);
    BlockImage img;
    img.word(0, 0x40002000);
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(0x1234, 12), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].pg.slot, -3);
}

TEST(Cdp, RecursiveScansInheritRootPg)
{
    ContentDirectedPrefetcher cdp(8, 128);
    BlockImage img;
    img.word(4, 0x40002000);
    ContentDirectedPrefetcher::ScanContext ctx;
    ctx.demandFill = false;
    ctx.fillDepth = 2;
    ctx.pgValid = true;
    ctx.pgRoot = PgId{0x1234, 7};
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, ctx, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].depth, 3u);
    EXPECT_EQ(out[0].pg.loadPc, 0x1234u);
    EXPECT_EQ(out[0].pg.slot, 7);
}

TEST(Cdp, RecursionDepthPolicyMatchesSection22)
{
    ContentDirectedPrefetcher cdp(8, 128);
    cdp.setAggressiveness(AggLevel::VeryConservative); // depth 1
    EXPECT_TRUE(cdp.shouldScan(0));   // demand fills always scanned
    EXPECT_FALSE(cdp.shouldScan(1));  // prefetched fills are not
    cdp.setAggressiveness(AggLevel::Aggressive); // depth 4
    EXPECT_TRUE(cdp.shouldScan(3));
    EXPECT_FALSE(cdp.shouldScan(4));
}

TEST(Cdp, Table2DepthKnob)
{
    ContentDirectedPrefetcher cdp(8, 128);
    cdp.setAggressiveness(AggLevel::VeryConservative);
    EXPECT_EQ(cdp.maxRecursionDepth(), 1u);
    cdp.setAggressiveness(AggLevel::Conservative);
    EXPECT_EQ(cdp.maxRecursionDepth(), 2u);
    cdp.setAggressiveness(AggLevel::Moderate);
    EXPECT_EQ(cdp.maxRecursionDepth(), 3u);
    cdp.setAggressiveness(AggLevel::Aggressive);
    EXPECT_EQ(cdp.maxRecursionDepth(), 4u);
}

TEST(Ecdp, HintsFilterDemandScans)
{
    ContentDirectedPrefetcher cdp(8, 128);
    HintTable hints;
    hints.entry(0x1234).set(+2);
    cdp.setFilterMode(ContentDirectedPrefetcher::FilterMode::EcdpHints);
    cdp.setHints(&hints);

    BlockImage img;
    img.word(5, 0x40002000); // slot +2 from word 3: beneficial
    img.word(7, 0x40003000); // slot +4: not marked
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(0x1234, 12), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blockAddr, 0x40002000u);
}

TEST(Ecdp, LoadWithoutHintsPrefetchesNothing)
{
    ContentDirectedPrefetcher cdp(8, 128);
    HintTable hints;
    hints.entry(0x9999).set(+1);
    cdp.setFilterMode(ContentDirectedPrefetcher::FilterMode::EcdpHints);
    cdp.setHints(&hints);

    BlockImage img;
    img.word(1, 0x40002000);
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(0x1234, 0), out);
    EXPECT_TRUE(out.empty());
}

TEST(Ecdp, RecursiveScansIgnoreHints)
{
    // Section 3: blocks fetched by CDP prefetches are scanned
    // greedily.
    ContentDirectedPrefetcher cdp(8, 128);
    HintTable hints; // empty: demand scans would be fully gated
    cdp.setFilterMode(ContentDirectedPrefetcher::FilterMode::EcdpHints);
    cdp.setHints(&hints);

    BlockImage img;
    img.word(4, 0x40002000);
    ContentDirectedPrefetcher::ScanContext ctx;
    ctx.demandFill = false;
    ctx.fillDepth = 1;
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, ctx, out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(Ecdp, NegativeHintBitsWork)
{
    ContentDirectedPrefetcher cdp(8, 128);
    HintTable hints;
    hints.entry(0x1234).set(-3);
    cdp.setFilterMode(ContentDirectedPrefetcher::FilterMode::EcdpHints);
    cdp.setHints(&hints);

    BlockImage img;
    img.word(0, 0x40002000); // slot -3 from word 3
    img.word(6, 0x40003000); // slot +3: filtered
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(0x1234, 12), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].blockAddr, 0x40002000u);
}

TEST(Grp, CoarseModeEnablesAllPointersOfHintedLoads)
{
    ContentDirectedPrefetcher cdp(8, 128);
    HintTable hints;
    hints.entry(0x1234).set(+2); // any beneficial PG enables the load
    cdp.setFilterMode(ContentDirectedPrefetcher::FilterMode::GrpCoarse);
    cdp.setHints(&hints);

    BlockImage img;
    img.word(5, 0x40002000);
    img.word(9, 0x40003000); // would be filtered in ECDP mode
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(0x1234, 12), out);
    EXPECT_EQ(out.size(), 2u);
}

TEST(Grp, CoarseModeDisablesUnhintedLoads)
{
    ContentDirectedPrefetcher cdp(8, 128);
    HintTable hints;
    cdp.setFilterMode(ContentDirectedPrefetcher::FilterMode::GrpCoarse);
    cdp.setHints(&hints);

    BlockImage img;
    img.word(5, 0x40002000);
    std::vector<PrefetchRequest> out;
    cdp.scan(kBlock, img.bytes, demandCtx(0x1234, 12), out);
    EXPECT_TRUE(out.empty());
}

/** Property: the compare-bits knob widens/narrows candidacy. */
class CdpCompareBitsTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CdpCompareBitsTest, MatchRequiresExactlyTopBits)
{
    const unsigned bits = GetParam();
    ContentDirectedPrefetcher cdp(bits, 128);
    // Flip the bit just below the compared region: still a match.
    std::uint32_t flip_low = kBlock.raw() ^ (1u << (31 - bits));
    EXPECT_TRUE(cdp.isPointerCandidate(kBlock, flip_low));
    // Flip the lowest bit inside the compared region: mismatch.
    std::uint32_t flip_in = kBlock.raw() ^ (1u << (32 - bits));
    EXPECT_FALSE(cdp.isPointerCandidate(kBlock, flip_in));
}

INSTANTIATE_TEST_SUITE_P(Bits, CdpCompareBitsTest,
                         ::testing::Values(4u, 8u, 12u, 16u));

TEST(HintTable, SetAndQueryPositiveAndNegative)
{
    PrefetchHint hint;
    hint.set(0);
    hint.set(31);
    hint.set(-1);
    hint.set(-32);
    EXPECT_TRUE(hint.allows(0));
    EXPECT_TRUE(hint.allows(31));
    EXPECT_TRUE(hint.allows(-1));
    EXPECT_TRUE(hint.allows(-32));
    EXPECT_FALSE(hint.allows(1));
    EXPECT_FALSE(hint.allows(-2));
}

TEST(HintTable, OutOfRangeSlotsAreRejected)
{
    PrefetchHint hint;
    hint.set(32);   // silently ignored
    hint.set(-33);
    EXPECT_FALSE(hint.allows(32));
    EXPECT_FALSE(hint.allows(-33));
    EXPECT_TRUE(hint.empty());
}

TEST(HintTable, FindReturnsNullForUnknownPc)
{
    HintTable table;
    EXPECT_EQ(table.find(0x1234), nullptr);
    table.entry(0x1234).set(1);
    ASSERT_NE(table.find(0x1234), nullptr);
    EXPECT_TRUE(table.find(0x1234)->allows(1));
    EXPECT_EQ(table.size(), 1u);
}

} // namespace
} // namespace ecdp
