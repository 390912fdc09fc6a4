/**
 * @file
 * Dependence-based prefetching (Roth, Moshovos, Sohi — ASPLOS-8),
 * the first comparison point of Section 6.3.
 *
 * A potential-producer window (PPW) holds recently loaded values with
 * the PCs that loaded them. When a load issues, its base address is
 * searched in the PPW; a match establishes a producer->consumer
 * correlation (with the address offset) stored in the correlation
 * table (CT). From then on, whenever the producer load completes with
 * value V, a prefetch is issued to V + offset — one linked node ahead,
 * which is exactly the timeliness limitation the paper points out.
 *
 * Sizing per the paper: 256-entry CT + 128-entry PPW (~3 KB). As the
 * engine "dbp" it is LDS-class, observes load values, and has no
 * aggressiveness knob.
 */

#ifndef ECDP_PREFETCH_DBP_HH
#define ECDP_PREFETCH_DBP_HH

#include <cstdint>
#include <vector>

#include "prefetch/engine.hh"
#include "prefetch/prefetcher.hh"

namespace ecdp
{

/**
 * The dependence-based LDS prefetcher.
 */
class DependenceBasedPrefetcher final : public PrefetchEngine
{
  public:
    /**
     * @param ppw_entries Potential-producer window size.
     * @param ct_entries Correlation table size.
     */
    explicit DependenceBasedPrefetcher(unsigned ppw_entries = 128,
                                       unsigned ct_entries = 256);

    explicit DependenceBasedPrefetcher(const EngineContext &)
        : DependenceBasedPrefetcher()
    {
    }

    const char *name() const override { return "dbp"; }
    Class statClass() const override { return Class::Lds; }
    unsigned maxRequestsPerTrigger() const override { return 1; }

    bool wantsLoadValues() const override { return true; }

    /**
     * A load issued with data address @p addr: search the PPW for the
     * producer of that address and record the correlation.
     */
    void onLoadIssue(Addr pc, Addr addr) override;

    /**
     * A pointer-sized load completed having loaded @p value: record it
     * as a potential producer and, if @p pc is a known producer, emit
     * a prefetch for its consumer template.
     */
    void onLoadComplete(Addr pc, Addr value,
                        std::vector<PrefetchRequest> &out) override;

    std::uint64_t storageBits() const override;

  private:
    struct PpwEntry
    {
        bool valid = false;
        Addr value = 0;
        Addr pc = 0;
    };

    struct CtEntry
    {
        bool valid = false;
        Addr producerPc = 0;
        std::int32_t offset = 0;
    };

    /** Max (addr - producer value) treated as a field offset. */
    static constexpr std::int32_t kMaxOffset = 128;

    std::vector<PpwEntry> ppw_;
    std::size_t ppwHead_ = 0;
    std::vector<CtEntry> ct_;
};

} // namespace ecdp

#endif // ECDP_PREFETCH_DBP_HH
