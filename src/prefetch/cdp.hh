/**
 * @file
 * Content-directed prefetching (Cooksey et al.) with the paper's
 * compiler-guided ECDP filtering and GRP-style coarse gating.
 *
 * The prefetcher scans cache blocks as they fill the last-level cache.
 * Every properly aligned word whose high-order `compare bits` match
 * those of the block's own virtual address is predicted to be a
 * pointer and becomes a prefetch candidate. Filtering applies only to
 * blocks fetched by demand misses; blocks fetched by CDP's own
 * (recursive) prefetches are always scanned greedily (Section 3).
 * It is the LDS-class fill-scanning engine behind two table rows:
 * "cdp" (greedy) and "ecdp" (compiler hints or GRP coarse gating).
 *
 * The slot walk is the simulator's innermost content loop (32 slots
 * per 128B fill), so the candidate test is factored into a bitmask
 * kernel: one AVX2 compare classifies 8 slots at a time when the
 * build host supports it (ECDP_HAVE_AVX2), with a scalar kernel that
 * is both the portable fallback and the fuzz-test oracle. Only the
 * candidate *test* is vectorized; filtering, dedup and request
 * construction stay scalar and run only on the (sparse) hits.
 */
// simlint: hot-path

#ifndef ECDP_PREFETCH_CDP_HH
#define ECDP_PREFETCH_CDP_HH

#include <cstdint>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/engine.hh"
#include "prefetch/hint_table.hh"
#include "prefetch/prefetcher.hh"

namespace ecdp
{

/**
 * The content-directed prefetcher.
 */
class ContentDirectedPrefetcher final : public PrefetchEngine
{
  public:
    using ScanContext = ::ecdp::ScanContext;

    /** How demand-fill scans are filtered. */
    enum class FilterMode : std::uint8_t
    {
        /** Original CDP: prefetch every identified pointer. */
        None,
        /** ECDP: prefetch only pointers in beneficial PGs. */
        EcdpHints,
        /**
         * Guided-region-prefetching style coarse gating: all pointers
         * of a load are enabled iff the load has any beneficial PG
         * (the Section 7.1 comparison).
         */
        GrpCoarse,
    };

    /**
     * @param compare_bits High-order address bits that must match for
     *        a word to be predicted a pointer (8 in the paper).
     * @param block_bytes L2 block size.
     */
    explicit ContentDirectedPrefetcher(unsigned compare_bits = 8,
                                       unsigned block_bytes = 128);

    /** Greedy ("cdp"); the "ecdp" factory then sets the filter mode
     *  and the hints. */
    explicit ContentDirectedPrefetcher(const EngineContext &ctx)
        : ContentDirectedPrefetcher(ctx.cdpCompareBits,
                                    ctx.geom.blockBytes())
    {
    }

    const char *name() const override
    {
        return filterMode_ == FilterMode::None ? "cdp" : "ecdp";
    }

    Class statClass() const override { return Class::Lds; }

    /** One scan can at most request every pointer slot of a block. */
    unsigned maxRequestsPerTrigger() const override
    {
        return geom_.blockBytes() / kPointerBytes;
    }

    /** Table 2 knob: maximum recursion depth 1..4. */
    void setAggressiveness(AggLevel level) override
    {
        maxDepth_ = kCdpDepthTable[static_cast<unsigned>(level)];
        level_ = level;
    }

    AggLevel aggressiveness() const { return level_; }
    unsigned maxRecursionDepth() const { return maxDepth_; }
    unsigned compareBits() const { return compareBits_; }

    void setFilterMode(FilterMode mode) { filterMode_ = mode; }
    FilterMode filterMode() const { return filterMode_; }

    /** Install the compiler's hints (ECDP / GRP modes). */
    void setHints(const HintTable *hints) { hints_ = hints; }

    /**
     * Should a block that filled at recursion depth @p fill_depth be
     * scanned at all? Depth-(d+1) requests are allowed while
     * d < maxRecursionDepth, so depth 1 means demand fills only.
     */
    bool shouldScan(unsigned fill_depth) const
    {
        return fill_depth < maxDepth_;
    }

    bool wantsFillScan() const override { return true; }

    bool scansOwnFillAt(unsigned fill_depth) const override
    {
        return shouldScan(fill_depth);
    }

    void onFill(Addr block_vaddr, const std::uint8_t *bytes,
                const ScanContext &ctx,
                std::vector<PrefetchRequest> &out) override
    {
        scan(block_vaddr, bytes, ctx, out);
    }

    /**
     * Scan a filled block and append prefetch candidates.
     *
     * @param block_vaddr Virtual address of the block.
     * @param bytes Block contents (block_bytes long).
     * @param ctx Fill context (filtering and PG attribution).
     * @param out Receives the candidates (deduplicated per scan).
     */
    void scan(Addr block_vaddr, const std::uint8_t *bytes,
              const ScanContext &ctx, std::vector<PrefetchRequest> &out);

    /** Is @p word predicted to be a pointer in @p block_vaddr? */
    bool isPointerCandidate(Addr block_vaddr, std::uint32_t word) const;

    /**
     * Bitmask of pointer-candidate slots: bit s is set iff the
     * little-endian word at slot s of @p bytes passes
     * isPointerCandidate(). @p slots must be <= 64 (scan() chunks
     * larger blocks). Dispatches to the AVX2 kernel when the build
     * selected one, else to the scalar kernel.
     */
    std::uint64_t candidateMask(Addr block_vaddr,
                                const std::uint8_t *bytes,
                                unsigned slots) const;

    /** Portable kernel behind candidateMask(); always built so the
     *  fuzz test can use it as the oracle for the SIMD kernel. */
    std::uint64_t candidateMaskScalar(Addr block_vaddr,
                                      const std::uint8_t *bytes,
                                      unsigned slots) const;

#if defined(ECDP_HAVE_AVX2)
    /** AVX2 kernel: one 256-bit compare classifies 8 slots. */
    std::uint64_t candidateMaskAvx2(Addr block_vaddr,
                                    const std::uint8_t *bytes,
                                    unsigned slots) const;
#endif

  private:
    unsigned compareBits_;
    BlockGeometry geom_;
    unsigned maxDepth_ = 4;
    AggLevel level_ = AggLevel::Aggressive;
    FilterMode filterMode_ = FilterMode::None;
    const HintTable *hints_ = nullptr;
    /** Per-scan dedup scratch; member so scan() never allocates once
     *  the vector has grown to its high-water mark. */
    std::vector<Addr> seen_;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_CDP_HH
