#include "sim/config.hh"

#include <algorithm>
#include <bit>
#include <vector>

namespace ecdp
{

namespace
{

/** 64-bit FNV-1a over explicitly fed fields. */
class FieldHasher
{
  public:
    void u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    /** Length, then one FNV round per byte. */
    void str(const std::string &v)
    {
        u64(v.size());
        for (char c : v) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ull;
        }
    }

    void f64(double v)
    {
        // +0.0 and -0.0 compare equal but hash differently through
        // bit_cast; normalize so equal configs hash equally.
        if (v == 0.0)
            v = 0.0;
        u64(std::bit_cast<std::uint64_t>(v));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

std::uint64_t
configHash(const SystemConfig &cfg)
{
    FieldHasher h;

    h.u64(cfg.core.robEntries);
    h.u64(cfg.core.width);
    h.u64(cfg.core.lsqEntries);
    h.u64(cfg.core.issuePerCycle);

    h.u64(cfg.l1Bytes);
    h.u64(cfg.l1Assoc);
    h.u64(cfg.l1BlockBytes);
    h.u64(cfg.l1Latency.raw());

    h.u64(cfg.l2Bytes);
    h.u64(cfg.l2Assoc);
    h.u64(cfg.l2BlockBytes);
    h.u64(cfg.l2Latency.raw());
    h.u64(cfg.l2Mshrs);

    h.u64(cfg.dram.banks);
    h.u64(cfg.dram.bankBusy.raw());
    h.u64(cfg.dram.busTransfer.raw());
    h.u64(cfg.dram.frontLatency.raw());
    h.u64(cfg.dram.requestBufferPerCore);

    // The engine stack is hashed order- and duplicate-sensitively:
    // ["stream","cdp"] and ["cdp","stream"] assign different slots
    // (start levels, counter scopes, PAB tie-breaks), so they are
    // different configurations.
    h.u64(cfg.engines.size());
    for (const std::string &name : cfg.engines)
        h.str(name);
    h.u64(cfg.streamEntries);
    h.u64(cfg.cdpCompareBits);
    h.u64(cfg.prefetchQueueEntries);
    h.u64(cfg.prefetchIssuePerCycle);
    h.u64(cfg.mshrReserveForDemand);
    h.u64(cfg.dramReserveForDemand);
    h.u64(cfg.hwFilter ? 1 : 0);
    h.u64(cfg.grpCoarse ? 1 : 0);

    // The hint table is hashed by content, not address, so the hash
    // identifies the *configuration* and is stable across processes.
    if (!cfg.hints) {
        h.u64(0);
    } else {
        h.u64(1);
        std::vector<std::pair<Addr, PrefetchHint>> entries(
            cfg.hints->begin(), cfg.hints->end());
        std::sort(entries.begin(), entries.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        h.u64(entries.size());
        for (const auto &[pc, hint] : entries) {
            h.u64(pc.raw());
            h.u64(hint.pos);
            h.u64(hint.neg);
        }
    }

    h.u64(static_cast<std::uint64_t>(cfg.primaryStartLevel));
    h.u64(static_cast<std::uint64_t>(cfg.ldsStartLevel));
    h.u64(cfg.intervalEvictions);
    h.f64(cfg.coordThresholds.tCoverage);
    h.f64(cfg.coordThresholds.aLow);
    h.f64(cfg.coordThresholds.aHigh);
    h.f64(cfg.fdpThresholds.aHigh);
    h.f64(cfg.fdpThresholds.aLow);
    h.f64(cfg.fdpThresholds.tLateness);
    h.f64(cfg.fdpThresholds.tPollution);
    h.u64(cfg.fdpThresholds.pollutionFilterEntries);
    h.u64(cfg.pabWindow);
    h.str(cfg.throttlePolicy);
    h.u64(cfg.throttleRlSeed);

    h.u64(cfg.idealLds ? 1 : 0);
    h.u64(cfg.idealNoPollution ? 1 : 0);
    h.u64(cfg.maxCycles.raw());

    // cfg.cycleSkipping is deliberately NOT hashed: it is a pure
    // wall-clock optimisation with bit-identical results (enforced by
    // the SkippingIsExact tests), so both settings denote the same
    // simulated configuration and must share memo/result-cache keys.

    return h.value();
}

std::vector<std::string>
engineInstanceNames(const std::vector<std::string> &stack)
{
    std::vector<std::string> names;
    names.reserve(stack.size());
    for (std::size_t i = 0; i < stack.size(); ++i) {
        if (i == 0)
            names.push_back("primary");
        else if (i == 1)
            names.push_back("lds");
        else
            names.push_back(stack[i] + std::to_string(i));
    }
    return names;
}

} // namespace ecdp
