/**
 * @file
 * PrefetchEngine adapters for the existing prefetchers (stream, GHB,
 * CDP/ECDP, Markov, DBP) plus the null engine that fills empty stack
 * slots. The ported competitors live in their own files
 * (isb_prefetcher.hh, dspatch_prefetcher.hh); registerBuiltinEngines()
 * in engines.cc wires every one of them into the EngineRegistry.
 */

#ifndef ECDP_PREFETCH_ENGINES_HH
#define ECDP_PREFETCH_ENGINES_HH

#include "memsim/types.hh"
#include "prefetch/cdp.hh"
#include "prefetch/dbp.hh"
#include "prefetch/engine.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"

namespace ecdp
{

/** Empty stack slot: never prefetches. The named configs put it in
 *  an unused paper slot so the slot still exists: it owns a feedback
 *  lane and a PAB window, and an idle slot reports accuracy 1.0 in
 *  both, which PAB's tie-break reads. */
class NullEngine final : public PrefetchEngine
{
  public:
    const char *name() const override { return "none"; }
    Class statClass() const override { return Class::Primary; }
    unsigned maxRequestsPerTrigger() const override { return 0; }
};

/** The paper's primary stream prefetcher (Table 2 throttling). */
class StreamEngine final : public PrefetchEngine
{
  public:
    explicit StreamEngine(const EngineContext &ctx)
        : stream_(ctx.streamEntries, ctx.geom.blockBytes())
    {
    }

    const char *name() const override { return "stream"; }
    Class statClass() const override { return Class::Primary; }

    unsigned maxRequestsPerTrigger() const override
    {
        return kStreamAggTable[static_cast<unsigned>(level_)].degree;
    }

    void setAggressiveness(AggLevel level) override
    {
        level_ = level;
        stream_.setAggressiveness(level);
    }

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override
    {
        stream_.trigger(entry.vaddr, out);
    }

    void onStoreMiss(Addr addr,
                     std::vector<PrefetchRequest> &out) override
    {
        stream_.trigger(addr, out);
    }

    void onPrefetchHit(Addr block_addr,
                       std::vector<PrefetchRequest> &out) override
    {
        // A hit on a stream-prefetched block keeps the stream alive.
        stream_.trigger(block_addr, out);
    }

    std::uint64_t storageBits() const override
    {
        return stream_.storageBits();
    }

  private:
    StreamPrefetcher stream_;
    AggLevel level_ = AggLevel::Aggressive;
};

/** GHB G/DC (Nesbit & Smith) as a primary-class engine. */
class GhbEngine final : public PrefetchEngine
{
  public:
    explicit GhbEngine(const EngineContext &ctx)
        : ghb_(1024, ctx.geom.blockBytes())
    {
    }

    const char *name() const override { return "ghb"; }
    Class statClass() const override { return Class::Primary; }

    unsigned maxRequestsPerTrigger() const override
    {
        return ghb_.degree();
    }

    void setAggressiveness(AggLevel level) override
    {
        static constexpr unsigned kGhbDegree[kNumAggLevels] = {1, 1, 2,
                                                               4};
        ghb_.setDegree(kGhbDegree[static_cast<unsigned>(level)]);
    }

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override
    {
        ghb_.onDemandMiss(entry.vaddr, out);
    }

    std::uint64_t storageBits() const override
    {
        return ghb_.storageBits();
    }

  private:
    GhbPrefetcher ghb_;
};

/**
 * Content-directed prefetching as an LDS-class fill-scanning engine.
 * Registered twice: "cdp" (greedy) and "ecdp" (compiler hints / GRP
 * coarse gating; the factory requires EngineContext::hints).
 */
class CdpEngine final : public PrefetchEngine
{
  public:
    CdpEngine(const EngineContext &ctx, bool hinted)
        : cdp_(ctx.cdpCompareBits, ctx.geom.blockBytes()),
          slotsPerBlock_(ctx.geom.blockBytes() / kPointerBytes),
          hinted_(hinted)
    {
        if (hinted_) {
            cdp_.setFilterMode(
                ctx.grpCoarse
                    ? ContentDirectedPrefetcher::FilterMode::GrpCoarse
                    : ContentDirectedPrefetcher::FilterMode::
                          EcdpHints);
            cdp_.setHints(ctx.hints);
        }
    }

    const char *name() const override
    {
        return hinted_ ? "ecdp" : "cdp";
    }

    Class statClass() const override { return Class::Lds; }

    unsigned maxRequestsPerTrigger() const override
    {
        // One scan can at most request every pointer slot of a block.
        return slotsPerBlock_;
    }

    void setAggressiveness(AggLevel level) override
    {
        cdp_.setAggressiveness(level);
    }

    bool wantsFillScan() const override { return true; }

    bool scansOwnFillAt(unsigned fill_depth) const override
    {
        return cdp_.shouldScan(fill_depth);
    }

    void onFill(Addr block_vaddr, const std::uint8_t *bytes,
                const ContentDirectedPrefetcher::ScanContext &ctx,
                std::vector<PrefetchRequest> &out) override
    {
        cdp_.scan(block_vaddr, bytes, ctx, out);
    }

    const ContentDirectedPrefetcher &cdp() const { return cdp_; }

  private:
    ContentDirectedPrefetcher cdp_;
    unsigned slotsPerBlock_;
    bool hinted_;
};

/** Markov miss-correlation prefetching (Joseph & Grunwald). */
class MarkovEngine final : public PrefetchEngine
{
  public:
    explicit MarkovEngine(const EngineContext &ctx)
        : geom_(ctx.geom), markov_(ctx.geom)
    {
    }

    const char *name() const override { return "markov"; }
    Class statClass() const override { return Class::Lds; }

    unsigned maxRequestsPerTrigger() const override
    {
        return MarkovPrefetcher::kSuccessors;
    }

    void onDemandMiss(const TraceEntry &entry,
                      std::vector<PrefetchRequest> &out) override
    {
        markov_.onDemandMiss(geom_.blockOf(entry.vaddr), out);
    }

    std::uint64_t storageBits() const override
    {
        return markov_.storageBits();
    }

  private:
    BlockGeometry geom_;
    MarkovPrefetcher markov_;
};

/** Dependence-based prefetching (Roth et al.): observes load values. */
class DbpEngine final : public PrefetchEngine
{
  public:
    explicit DbpEngine(const EngineContext &) {}

    const char *name() const override { return "dbp"; }
    Class statClass() const override { return Class::Lds; }
    unsigned maxRequestsPerTrigger() const override { return 1; }

    bool wantsLoadValues() const override { return true; }

    void onLoadIssue(Addr pc, Addr addr) override
    {
        dbp_.onLoadIssue(pc, addr);
    }

    void onLoadComplete(Addr pc, Addr value,
                        std::vector<PrefetchRequest> &out) override
    {
        dbp_.onLoadComplete(pc, value, out);
    }

    std::uint64_t storageBits() const override
    {
        return dbp_.storageBits();
    }

  private:
    DependenceBasedPrefetcher dbp_;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_ENGINES_HH
