#include "prefetch/dspatch_prefetcher.hh"

#include <algorithm>

namespace ecdp
{

DspatchPrefetcher::DspatchPrefetcher(const EngineContext &ctx)
    : geom_(ctx.geom),
      regionBlocks_(std::min<std::uint32_t>(
          64, std::max<std::uint32_t>(
                  2, kRegionBytes / ctx.geom.blockBytes()))),
      regionGeom_(ctx.geom.blockBytes() * regionBlocks_),
      buffer_(kBufferEntries), spt_(kSptEntries)
{
}

std::uint64_t
DspatchPrefetcher::rotateToAnchor(std::uint64_t bitmap,
                                  std::uint32_t anchor) const
{
    // Left-rotate within the regionBlocks_-bit window so the anchor
    // block becomes bit 0.
    std::uint64_t out = 0;
    for (std::uint32_t b = 0; b < regionBlocks_; ++b) {
        if (bitmap & (std::uint64_t{1} << b)) {
            const std::uint32_t rel =
                (b + regionBlocks_ - anchor) % regionBlocks_;
            out |= std::uint64_t{1} << rel;
        }
    }
    return out;
}

void
DspatchPrefetcher::retire(const BufferEntry &entry)
{
    if (!entry.valid)
        return;
    const std::uint64_t pattern =
        rotateToAnchor(entry.accessed, entry.triggerOffset);
    const std::uint32_t pcTag = entry.triggerPc.raw();
    SptEntry &spt = spt_[pcTag % spt_.size()];
    if (!spt.valid || spt.pcTag != pcTag) {
        spt.valid = true;
        spt.pcTag = pcTag;
        spt.covP = pattern;
        spt.accP = pattern;
        return;
    }
    spt.covP |= pattern;
    spt.accP &= pattern;
}

void
DspatchPrefetcher::onDemandMiss(const TraceEntry &entry,
                                std::vector<PrefetchRequest> &out)
{
    const std::uint32_t regionTag =
        regionGeom_.blockOf(entry.vaddr).raw();
    const std::uint32_t offset =
        regionGeom_.offsetIn(entry.vaddr) / geom_.blockBytes();

    BufferEntry &slot = buffer_[regionTag % buffer_.size()];
    if (!slot.valid || slot.regionTag != regionTag) {
        // New region: retire the displaced one into the SPT, then
        // predict for the trigger access from the trigger PC's learned
        // dual pattern.
        retire(slot);
        slot.valid = true;
        slot.regionTag = regionTag;
        slot.triggerPc = entry.pc;
        slot.triggerOffset = offset;
        slot.accessed = std::uint64_t{1} << offset;

        const std::uint32_t pcTag = entry.pc.raw();
        const SptEntry &spt = spt_[pcTag % spt_.size()];
        if (spt.valid && spt.pcTag == pcTag) {
            // Aggressive/Moderate: coverage-biased pattern;
            // Conservative and below: accuracy-biased pattern.
            const std::uint64_t pattern =
                level_ >= AggLevel::Moderate ? spt.covP : spt.accP;
            const Addr regionBase = regionGeom_.alignDown(entry.vaddr);
            for (std::uint32_t rel = 1; rel < regionBlocks_; ++rel) {
                if (!(pattern & (std::uint64_t{1} << rel)))
                    continue;
                const std::uint32_t b = (offset + rel) % regionBlocks_;
                PrefetchRequest req;
                req.blockAddr =
                    regionBase + b * geom_.blockBytes();
                out.push_back(req);
            }
        }
    } else {
        slot.accessed |= std::uint64_t{1} << offset;
    }
}

std::uint64_t
DspatchPrefetcher::storageBits() const
{
    // Buffer: tag + PC + offset + bitmap; SPT: tag + two patterns.
    return buffer_.size() * (32 + 32 + 6 + regionBlocks_) +
           spt_.size() * (32 + 2 * regionBlocks_);
}

} // namespace ecdp
