#include "prefetch/dbp.hh"

#include <cassert>

namespace ecdp
{

DependenceBasedPrefetcher::DependenceBasedPrefetcher(unsigned ppw_entries,
                                                     unsigned ct_entries)
    : ppw_(ppw_entries), ct_(ct_entries)
{
    assert(ppw_entries > 0 && ct_entries > 0);
}

void
DependenceBasedPrefetcher::onLoadIssue(Addr pc, Addr addr)
{
    // Scan newest-first so the most recent producer wins.
    for (std::size_t i = 0; i < ppw_.size(); ++i) {
        std::size_t idx = (ppwHead_ + ppw_.size() - 1 - i) % ppw_.size();
        const PpwEntry &entry = ppw_[idx];
        if (!entry.valid)
            continue;
        std::int64_t offset =
            std::int64_t{addr.raw()} - std::int64_t{entry.value.raw()};
        if (offset < 0 || offset >= kMaxOffset)
            continue;
        CtEntry &slot = ct_[entry.pc.raw() % ct_.size()];
        slot.valid = true;
        slot.producerPc = entry.pc;
        slot.offset = static_cast<std::int32_t>(offset);
        // The consumer PC itself is not needed for prefetch generation.
        (void)pc;
        return;
    }
}

void
DependenceBasedPrefetcher::onLoadComplete(Addr pc, Addr value,
                                          std::vector<PrefetchRequest> &out)
{
    const CtEntry &slot = ct_[pc.raw() % ct_.size()];
    if (slot.valid && slot.producerPc == pc && value != 0) {
        PrefetchRequest req;
        req.blockAddr = value + slot.offset;
        out.push_back(req);
    }

    PpwEntry &entry = ppw_[ppwHead_];
    entry.valid = true;
    entry.value = value;
    entry.pc = pc;
    ppwHead_ = (ppwHead_ + 1) % ppw_.size();
}

std::uint64_t
DependenceBasedPrefetcher::storageBits() const
{
    // PPW: value (32) + pc (32); CT: pc (32) + offset (8) + valid.
    return ppw_.size() * 64 + ct_.size() * 41;
}

} // namespace ecdp
