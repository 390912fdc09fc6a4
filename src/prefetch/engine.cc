#include "prefetch/engine.hh"

#include <stdexcept>

#include "memsim/name_table.hh"
#include "prefetch/cdp.hh"
#include "prefetch/dbp.hh"
#include "prefetch/dspatch_prefetcher.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "prefetch/isb_prefetcher.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/stream_prefetcher.hh"

namespace ecdp
{

namespace
{

template <typename Engine>
std::unique_ptr<PrefetchEngine>
make(const EngineContext &ctx)
{
    return std::make_unique<Engine>(ctx);
}

/** "ecdp": CDP filtered by the compiler's hints (or GRP-style coarse
 *  gating), which it cannot run without. */
std::unique_ptr<PrefetchEngine>
makeEcdp(const EngineContext &ctx)
{
    if (ctx.hints == nullptr) {
        throw std::invalid_argument(
            "engine \"ecdp\" requires compiler hints "
            "(SystemConfig::hints)");
    }
    auto cdp = std::make_unique<ContentDirectedPrefetcher>(ctx);
    cdp->setFilterMode(
        ctx.grpCoarse ? ContentDirectedPrefetcher::FilterMode::GrpCoarse
                      : ContentDirectedPrefetcher::FilterMode::EcdpHints);
    cdp->setHints(ctx.hints);
    return cdp;
}

constexpr EngineRow kEngines[] = {
    {"cdp", make<ContentDirectedPrefetcher>},
    {"dbp", make<DependenceBasedPrefetcher>},
    {"dspatch", make<DspatchPrefetcher>},
    {"ecdp", makeEcdp},
    {"ghb", make<GhbPrefetcher>},
    {"isb", make<IsbPrefetcher>},
    {"markov", make<MarkovPrefetcher>},
    {"none", make<NullEngine>},
    {"stream", make<StreamPrefetcher>},
};

} // namespace

std::span<const EngineRow>
engineTable()
{
    return kEngines;
}

const EngineRow &
findEngine(std::string_view name)
{
    return findByName(kEngines, name, "prefetch engine");
}

} // namespace ecdp
