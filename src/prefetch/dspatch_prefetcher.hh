/**
 * @file
 * DSPatch-style dual-spatial-pattern prefetcher, ported as a table
 * engine (second competitor of Issue 7; after Bera et al., MICRO-52).
 *
 * DSPatch learns, per trigger PC, the bit pattern of blocks a program
 * touches inside a 2 KB spatial region — and keeps TWO patterns per
 * PC: CovP, the OR of every observed pattern (coverage-biased), and
 * AccP, the AND (accuracy-biased). The original uses DRAM-bandwidth
 * headroom to pick between them each prediction; here the choice rides
 * the paper's Table 2 aggressiveness lane instead, which is exactly
 * the knob the coordinated throttler drives: at Moderate/Aggressive
 * the engine predicts with CovP, throttled below that it falls back to
 * AccP. That gives the throttler a genuinely bimodal
 * accuracy/bandwidth profile to coordinate against stream and CDP.
 *
 * Patterns are anchored at the trigger offset (rotated within the
 * region) so one PC generalizes across regions, as in the paper.
 */

#ifndef ECDP_PREFETCH_DSPATCH_PREFETCHER_HH
#define ECDP_PREFETCH_DSPATCH_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "memsim/block_geometry.hh"
#include "prefetch/engine.hh"
#include "prefetch/prefetcher.hh"

namespace ecdp
{

/**
 * The dual-spatial-pattern engine, table row "dspatch".
 * Primary-class: it targets spatially clustered (streaming-adjacent)
 * traffic, so like the stream prefetcher it bypasses the LDS hardware
 * filter.
 */
class DspatchPrefetcher final : public PrefetchEngine
{
  public:
    explicit DspatchPrefetcher(const EngineContext &ctx);

    const char *name() const override { return "dspatch"; }
    Class statClass() const override { return Class::Primary; }

    unsigned maxRequestsPerTrigger() const override
    {
        return regionBlocks_ - 1;
    }

    void setAggressiveness(AggLevel level) override { level_ = level; }

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override;

    std::uint64_t storageBits() const override;

  private:
    /** Spatial region size (2 KB in the paper). */
    static constexpr std::uint32_t kRegionBytes = 2048;
    /** Active (page-buffer) regions being recorded. */
    static constexpr std::size_t kBufferEntries = 64;
    /** Signature (per-PC pattern) table entries. */
    static constexpr std::size_t kSptEntries = 256;

    /** One region currently accumulating its access bitmap. */
    struct BufferEntry
    {
        bool valid = false;
        std::uint32_t regionTag = 0;
        Addr triggerPc = 0;
        std::uint32_t triggerOffset = 0;
        std::uint64_t accessed = 0;
    };

    /** Learned dual pattern of one trigger PC. */
    struct SptEntry
    {
        bool valid = false;
        std::uint32_t pcTag = 0;
        std::uint64_t covP = 0;
        std::uint64_t accP = 0;
    };

    std::uint64_t rotateToAnchor(std::uint64_t bitmap,
                                 std::uint32_t anchor) const;
    void retire(const BufferEntry &entry);

    BlockGeometry geom_;
    /** Blocks per region (<= 64 so a pattern fits one word). */
    std::uint32_t regionBlocks_;
    /** Geometry of whole regions (regionBlocks_ * blockBytes). */
    BlockGeometry regionGeom_;
    AggLevel level_ = AggLevel::Aggressive;
    std::vector<BufferEntry> buffer_;
    std::vector<SptEntry> spt_;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_DSPATCH_PREFETCHER_HH
