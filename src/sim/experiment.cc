#include "sim/experiment.hh"

#include <cstdlib>
#include <stdexcept>

#include "obs/trace_session.hh"
#include "server/result_store.hh"
#include "stats/json.hh"

namespace ecdp
{
namespace configs
{

SystemConfig
noPrefetch()
{
    SystemConfig cfg;
    cfg.engines[0] = "none";
    return cfg;
}

SystemConfig
baseline()
{
    return SystemConfig{};
}

SystemConfig
streamCdp()
{
    SystemConfig cfg = baseline();
    cfg.engines[1] = "cdp";
    return cfg;
}

SystemConfig
streamEcdp(const HintTable *hints)
{
    SystemConfig cfg = baseline();
    cfg.engines[1] = "ecdp";
    cfg.hints = hints;
    return cfg;
}

SystemConfig
streamCdpThrottled()
{
    SystemConfig cfg = streamCdp();
    cfg.throttlePolicy = "coordinated";
    return cfg;
}

SystemConfig
fullProposal(const HintTable *hints)
{
    SystemConfig cfg = streamEcdp(hints);
    cfg.throttlePolicy = "coordinated";
    return cfg;
}

SystemConfig
streamDbp()
{
    SystemConfig cfg = baseline();
    cfg.engines[1] = "dbp";
    return cfg;
}

SystemConfig
streamMarkov()
{
    SystemConfig cfg = baseline();
    cfg.engines[1] = "markov";
    return cfg;
}

SystemConfig
ghbAlone()
{
    SystemConfig cfg;
    cfg.engines[0] = "ghb";
    return cfg;
}

SystemConfig
ghbEcdp(const HintTable *hints)
{
    SystemConfig cfg = ghbAlone();
    cfg.engines[1] = "ecdp";
    cfg.hints = hints;
    cfg.throttlePolicy = "coordinated";
    return cfg;
}

SystemConfig
streamCdpHwFilter()
{
    SystemConfig cfg = streamCdpThrottled();
    cfg.hwFilter = true;
    return cfg;
}

SystemConfig
streamEcdpFdp(const HintTable *hints)
{
    SystemConfig cfg = streamEcdp(hints);
    cfg.throttlePolicy = "fdp";
    return cfg;
}

SystemConfig
streamCdpPab()
{
    SystemConfig cfg = streamCdp();
    cfg.throttlePolicy = "pab";
    return cfg;
}

SystemConfig
streamGrpCoarse(const HintTable *hints)
{
    SystemConfig cfg = streamEcdp(hints);
    cfg.grpCoarse = true;
    return cfg;
}

SystemConfig
idealLds()
{
    SystemConfig cfg = baseline();
    cfg.idealLds = true;
    return cfg;
}

SystemConfig
byName(const std::string &name, const HintTable *hints)
{
    if (name == "noprefetch")
        return noPrefetch();
    if (name == "baseline")
        return baseline();
    if (name == "cdp")
        return streamCdp();
    if (name == "ecdp")
        return streamEcdp(hints);
    if (name == "cdp+throttle")
        return streamCdpThrottled();
    if (name == "full")
        return fullProposal(hints);
    if (name == "dbp")
        return streamDbp();
    if (name == "markov")
        return streamMarkov();
    if (name == "ghb")
        return ghbAlone();
    if (name == "ghb+ecdp")
        return ghbEcdp(hints);
    if (name == "cdp+filter")
        return streamCdpHwFilter();
    if (name == "ecdp+fdp")
        return streamEcdpFdp(hints);
    if (name == "cdp+pab")
        return streamCdpPab();
    if (name == "grp")
        return streamGrpCoarse(hints);
    if (name == "ideal-lds")
        return idealLds();
    std::string known;
    for (const std::string &k : knownNames())
        known += (known.empty() ? "" : ", ") + k;
    throw std::runtime_error("unknown config '" + name +
                             "' (known: " + known + ")");
}

bool
nameNeedsHints(const std::string &name)
{
    return name == "ecdp" || name == "full" || name == "ghb+ecdp" ||
           name == "ecdp+fdp" || name == "grp";
}

const std::vector<std::string> &
knownNames()
{
    static const std::vector<std::string> names = {
        "noprefetch", "baseline",   "cdp",      "ecdp",
        "cdp+throttle", "full",     "dbp",      "markov",
        "ghb",        "ghb+ecdp",   "cdp+filter", "ecdp+fdp",
        "cdp+pab",    "grp",        "ideal-lds",
    };
    return names;
}

} // namespace configs

std::uint64_t
runKey(const std::string &workload, const SystemConfig &cfg)
{
    return resultKey(workload, configHash(cfg));
}

ExperimentContext::ExperimentContext()
    : traceSession_(obs::TraceSession::global())
{
    // The memo is the memory tier; the store only spills, so it
    // keeps at most one entry in memory.
    const char *dir = std::getenv("ECDP_RESULT_CACHE");
    if (dir && *dir)
        store_ = std::make_unique<server::ResultStore>(dir, 1);
}

ExperimentContext::~ExperimentContext() = default;

const Workload &
ExperimentContext::ref(const std::string &name)
{
    return refs_.get(
        name, [&] { return buildWorkload(name, InputSet::Ref); });
}

const Workload &
ExperimentContext::train(const std::string &name)
{
    return trains_.get(
        name, [&] { return buildWorkload(name, InputSet::Train); });
}

const HintTable &
ExperimentContext::hints(const std::string &name)
{
    return hints_.get(name, [&] {
        return ProfilingCompiler::profile(train(name));
    });
}

const HintTable &
ExperimentContext::hintsFromRef(const std::string &name)
{
    return refHints_.get(name, [&] {
        return ProfilingCompiler::profile(ref(name));
    });
}

const RunStats &
ExperimentContext::run(const std::string &name, const SystemConfig &cfg,
                       const std::string &key)
{
    const std::uint64_t id = runKey(name, cfg);
    return runs_.get(id, [&]() -> RunStats {
        // A store hit would skip the simulation and leave a hole in
        // the trace, so while tracing is on every unique run executes
        // (and its result is still stored below).
        if (store_ && !traceSession_) {
            if (server::ResultStore::Bytes bytes = store_->lookup(id)) {
                if (std::optional<RunStats> cached =
                        decodeRunStats(*bytes, name)) {
                    return std::move(*cached);
                }
            }
        }
        RunStats stats;
        if (traceSession_) {
            obs::EventTracer tracer(
                obs::EventTracer::capacityFromEnv());
            obs::MetricRegistry metrics;
            Observability bundle{&metrics, &tracer};
            stats = simulate(cfg, ref(name), bundle);
            traceSession_->flush(name + ":" + key, tracer);
        } else {
            stats = simulate(cfg, ref(name));
        }
        if (store_)
            store_->complete(id, encodeRunStats(stats));
        return stats;
    });
}

} // namespace ecdp
