#include "sim/experiment.hh"

#include <algorithm>
#include <cstdlib>
#include <ranges>
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

namespace
{

/** One byName() entry; configs that take no hints ignore them. */
struct Named
{
    const char *name;
    SystemConfig (*make)(const HintTable *hints);
};

/** Every named configuration, in knownNames() order. */
constexpr Named kNamed[] = {
    {"noprefetch", [](const HintTable *) { return noPrefetch(); }},
    {"baseline", [](const HintTable *) { return baseline(); }},
    {"cdp", [](const HintTable *) { return streamCdp(); }},
    {"ecdp", streamEcdp},
    {"cdp+throttle", [](const HintTable *) { return streamCdpThrottled(); }},
    {"full", fullProposal},
    {"dbp", [](const HintTable *) { return streamDbp(); }},
    {"markov", [](const HintTable *) { return streamMarkov(); }},
    {"ghb", [](const HintTable *) { return ghbAlone(); }},
    {"ghb+ecdp", ghbEcdp},
    {"cdp+filter", [](const HintTable *) { return streamCdpHwFilter(); }},
    {"ecdp+fdp", streamEcdpFdp},
    {"cdp+pab", [](const HintTable *) { return streamCdpPab(); }},
    {"grp", streamGrpCoarse},
    {"ideal-lds", [](const HintTable *) { return idealLds(); }},
};

} // namespace

SystemConfig
byName(const std::string &name, const HintTable *hints)
{
    for (const Named &entry : kNamed)
        if (name == entry.name)
            return entry.make(hints);
    std::string known;
    for (const std::string &k : knownNames())
        known += (known.empty() ? "" : ", ") + k;
    throw std::runtime_error("unknown config '" + name +
                             "' (known: " + known + ")");
}

bool
nameNeedsHints(const std::string &name)
{
    // Probed once: the lookup sits on every memo hit's path.
    static const std::vector<std::string> hinted = [] {
        static const HintTable probe;
        std::vector<std::string> names;
        for (const Named &entry : kNamed)
            if (entry.make(&probe).hints == &probe)
                names.push_back(entry.name);
        return names;
    }();
    return std::find(hinted.begin(), hinted.end(), name) != hinted.end();
}

const std::vector<std::string> &
knownNames()
{
    auto all = std::views::transform(kNamed, &Named::name);
    static const std::vector<std::string> names(all.begin(), all.end());
    return names;
}

} // namespace configs

std::uint64_t
runKey(const std::string &workload, const SystemConfig &cfg,
       InputSet input)
{
    const std::uint64_t hash = configHash(cfg);
    return input == InputSet::Ref ? resultKey(workload, hash)
                                  : resultKey(workload + ":train", hash);
}

std::string
mixName(const std::vector<std::string> &mix)
{
    std::string name;
    for (const std::string &member : mix)
        name += (name.empty() ? "" : "+") + member;
    return name;
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

const HintTable &
ExperimentContext::informingHints(const std::string &name)
{
    return informingHints_.get(name, [&] {
        return ProfilingCompiler::profileWithInformingLoads(train(name));
    });
}

const HintTable &
ExperimentContext::mixHints(const std::vector<std::string> &mix)
{
    return mixHints_.get(mixName(mix), [&] {
        HintTable merged;
        for (const std::string &member : mix)
            for (const auto &[pc, hint] : hints(member))
                merged.entry(pc) = hint;
        return merged;
    });
}

void
ExperimentContext::traced(
    const std::string &traceName,
    const std::function<void(const Observability &)> &sim)
{
    if (!traceSession_) {
        sim(Observability{});
        return;
    }
    obs::EventTracer tracer(obs::EventTracer::capacityFromEnv());
    obs::MetricRegistry metrics;
    sim(Observability{&metrics, &tracer});
    traceSession_->flush(traceName, tracer);
}

const RunStats &
ExperimentContext::run(const std::string &name, const SystemConfig &cfg,
                       const std::string &key, InputSet input)
{
    const std::uint64_t id = runKey(name, cfg, input);
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
        const Workload &wl = workload(name, input);
        RunStats stats;
        traced(name + ":" + key, [&](const Observability &obs) {
            stats = simulate(cfg, wl, obs);
        });
        if (store_)
            store_->complete(id, encodeRunStats(stats));
        return stats;
    });
}

const MultiCoreResult &
ExperimentContext::runMix(const std::vector<std::string> &mix,
                          const SystemConfig &cfg,
                          const std::string &label, InputSet input)
{
    const std::string name = mixName(mix);
    return mixes_.get(runKey("mix:" + name, cfg, input), [&] {
        std::vector<const Workload *> workloads;
        std::vector<double> alone;
        for (const std::string &member : mix) {
            workloads.push_back(&workload(member, input));
            alone.push_back(
                run(member, configs::baseline(), "baseline", input).ipc);
        }
        MultiCoreResult result;
        traced(name + ":" + label, [&](const Observability &obs) {
            result = simulateMultiCore(cfg, workloads, alone, obs);
        });
        return result;
    });
}

} // namespace ecdp
