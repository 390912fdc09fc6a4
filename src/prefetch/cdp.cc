// simlint: hot-path
#include "prefetch/cdp.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#if defined(ECDP_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace ecdp
{

namespace
{

/** The little-endian word at @p p, assembled the same way for the
 *  scalar kernel, the SIMD tail and the hit rescan so all three agree
 *  bit for bit. */
inline std::uint32_t
leWord(const std::uint8_t *p)
{
    std::uint32_t word = 0;
    for (unsigned b = 0; b < kPointerBytes; ++b)
        word |= std::uint32_t{p[b]} << (8 * b);
    return word;
}

} // namespace

ContentDirectedPrefetcher::ContentDirectedPrefetcher(unsigned compare_bits,
                                                     unsigned block_bytes)
    : compareBits_(compare_bits), geom_(block_bytes)
{
    assert(compare_bits >= 1 && compare_bits <= 31);
    assert(std::has_single_bit(block_bytes));
}

bool
ContentDirectedPrefetcher::isPointerCandidate(Addr block_vaddr,
                                              std::uint32_t word) const
{
    if (word == 0)
        return false;
    // Segment compare: the high-order compare bits of the *value*
    // against those of the block's own virtual address.
    unsigned shift = 32 - compareBits_;
    return (word >> shift) == (block_vaddr.raw() >> shift);
}

std::uint64_t
ContentDirectedPrefetcher::candidateMaskScalar(Addr block_vaddr,
                                               const std::uint8_t *bytes,
                                               unsigned slots) const
{
    assert(slots <= 64);
    std::uint64_t mask = 0;
    for (unsigned slot = 0; slot < slots; ++slot) {
        if (isPointerCandidate(block_vaddr,
                               leWord(bytes + slot * kPointerBytes)))
            mask |= std::uint64_t{1} << slot;
    }
    return mask;
}

#if defined(ECDP_HAVE_AVX2)

std::uint64_t
ContentDirectedPrefetcher::candidateMaskAvx2(Addr block_vaddr,
                                             const std::uint8_t *bytes,
                                             unsigned slots) const
{
    assert(slots <= 64);
    // An unaligned 256-bit load of little-endian memory yields the
    // same eight 32-bit words leWord() assembles, so the two kernels
    // see identical lane values (x86 is little-endian by definition
    // wherever AVX2 exists).
    const int shift = static_cast<int>(32 - compareBits_);
    const __m128i shift_count = _mm_cvtsi32_si128(shift);
    const __m256i want = _mm256_set1_epi32(
        static_cast<int>(block_vaddr.raw() >> shift));
    const __m256i zero = _mm256_setzero_si256();

    std::uint64_t mask = 0;
    unsigned slot = 0;
    for (; slot + 8 <= slots; slot += 8) {
        const __m256i words = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bytes +
                                              slot * kPointerBytes));
        // Logical right shift matches the scalar uint32 >>.
        const __m256i high = _mm256_srl_epi32(words, shift_count);
        const __m256i seg_match = _mm256_cmpeq_epi32(high, want);
        const __m256i is_zero = _mm256_cmpeq_epi32(words, zero);
        const __m256i hit = _mm256_andnot_si256(is_zero, seg_match);
        const auto bits = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(hit)));
        mask |= std::uint64_t{bits} << slot;
    }
    for (; slot < slots; ++slot) {
        if (isPointerCandidate(block_vaddr,
                               leWord(bytes + slot * kPointerBytes)))
            mask |= std::uint64_t{1} << slot;
    }
    return mask;
}

#endif // ECDP_HAVE_AVX2

std::uint64_t
ContentDirectedPrefetcher::candidateMask(Addr block_vaddr,
                                         const std::uint8_t *bytes,
                                         unsigned slots) const
{
#if defined(ECDP_HAVE_AVX2)
    return candidateMaskAvx2(block_vaddr, bytes, slots);
#else
    return candidateMaskScalar(block_vaddr, bytes, slots);
#endif
}

void
ContentDirectedPrefetcher::scan(Addr block_vaddr,
                                const std::uint8_t *bytes,
                                const ScanContext &ctx,
                                std::vector<PrefetchRequest> &out)
{
    const PrefetchHint *hint = nullptr;
    if (ctx.demandFill && filterMode_ != FilterMode::None) {
        hint = hints_ ? hints_->find(ctx.loadPc) : nullptr;
        // A load with no beneficial PGs generates no prefetches; in
        // GRP mode any beneficial PG enables the whole load.
        if (!hint || hint->empty())
            return;
    }

    const unsigned slots = geom_.blockBytes() / kPointerBytes;
    const int access_word = static_cast<int>(
        (ctx.accessByteOffset & geom_.blockMask()) / kPointerBytes);

    // Dedupe targets within one scan so several pointers to the same
    // block cost one request.
    seen_.clear();

    // The mask kernel classifies up to 64 slots per call; blocks
    // larger than 256B walk it in chunks. Bits are consumed lowest
    // first, preserving the original slot order (and therefore the
    // first-pointer-wins dedup behavior).
    for (unsigned chunk = 0; chunk < slots; chunk += 64) {
        const unsigned chunk_slots = std::min(64u, slots - chunk);
        for (std::uint64_t mask = candidateMask(
                 block_vaddr, bytes + chunk * kPointerBytes, chunk_slots);
             mask; mask &= mask - 1) {
            const unsigned slot =
                chunk + static_cast<unsigned>(std::countr_zero(mask));
            const std::uint32_t word =
                leWord(bytes + slot * kPointerBytes);

            const int offset = static_cast<int>(slot) - access_word;
            if (ctx.demandFill && filterMode_ == FilterMode::EcdpHints &&
                !hint->allows(offset)) {
                continue;
            }

            Addr target_block = geom_.alignDown(Addr{word});
            if (target_block == block_vaddr)
                continue; // self-pointer: already resident
            bool dup = false;
            for (Addr s : seen_)
                dup = dup || s == target_block;
            if (dup)
                continue;
            seen_.push_back(target_block);

            PrefetchRequest req;
            req.blockAddr = target_block;
            req.depth = static_cast<std::uint8_t>(ctx.fillDepth + 1);
            if (ctx.demandFill) {
                req.pgValid = true;
                req.pg = PgId{ctx.loadPc,
                              static_cast<std::int16_t>(offset)};
            } else {
                req.pgValid = ctx.pgValid;
                req.pg = ctx.pgRoot;
            }
            out.push_back(req);
        }
    }
}

} // namespace ecdp
