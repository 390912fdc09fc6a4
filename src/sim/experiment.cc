#include "sim/experiment.hh"

#include <array>
#include <cstdlib>
#include <string_view>

#include "memsim/name_table.hh"
#include "obs/trace_session.hh"
#include "server/result_store.hh"
#include "stats/json.hh"

namespace ecdp
{
namespace configs
{

namespace
{

/**
 * One named configuration: the Table 5 baseline machine with this
 * engine stack, throttle policy and flags. Whether it takes compiler
 * hints is not a column: stackRunsEcdp() decides that from the stack.
 */
struct Named
{
    std::string_view name;
    std::array<std::string_view, 2> engines;
    std::string_view policy;
    bool hwFilter = false;
    bool grpCoarse = false;
    bool idealLds = false;
};

/** Every named configuration, in knownNames() order. */
constexpr Named kNamed[] = {
    // No prefetching at all.
    {"noprefetch", {"none", "none"}, "static"},
    // The Table 5 baseline: aggressive stream prefetcher only.
    {"baseline", {"stream", "none"}, "static"},
    // Stream + original (greedy) CDP: the Figure 2 configuration.
    {"cdp", {"stream", "cdp"}, "static"},
    // Stream + ECDP (compiler hints), no throttling.
    {"ecdp", {"stream", "ecdp"}, "static"},
    // Stream + original CDP + coordinated throttling.
    {"cdp+throttle", {"stream", "cdp"}, "coordinated"},
    // The full proposal: stream + ECDP + coordinated throttling.
    {"full", {"stream", "ecdp"}, "coordinated"},
    // Stream + DBP, stream + Markov, GHB G/DC alone (Section 6.3).
    {"dbp", {"stream", "dbp"}, "static"},
    {"markov", {"stream", "markov"}, "static"},
    {"ghb", {"ghb", "none"}, "static"},
    // GHB + ECDP + coordinated throttling (Section 6.3
    // orthogonality experiment).
    {"ghb+ecdp", {"ghb", "ecdp"}, "coordinated"},
    // Stream + CDP behind the Zhuang-Lee filter + coordinated
    // throttling (Section 6.4).
    {"cdp+filter", {"stream", "cdp"}, "coordinated", /*hwFilter=*/true},
    // Stream + ECDP under FDP throttling (Section 6.5).
    {"ecdp+fdp", {"stream", "ecdp"}, "fdp"},
    // Stream + CDP under the PAB selector (Section 7.4).
    {"cdp+pab", {"stream", "cdp"}, "pab"},
    // Stream + ECDP with GRP-style coarse gating (Section 7.1).
    {"grp", {"stream", "ecdp"}, "static", false, /*grpCoarse=*/true},
    // Baseline + the Figure 1 ideal-LDS oracle.
    {"ideal-lds", {"stream", "none"}, "static", false, false,
     /*idealLds=*/true},
};

const Named &
row(const std::string &name)
{
    return findByName(kNamed, name, "config");
}

} // namespace

SystemConfig
byName(const std::string &name, const HintTable *hints)
{
    const Named &named = row(name);
    SystemConfig cfg;
    cfg.engines[0] = named.engines[0];
    cfg.engines[1] = named.engines[1];
    cfg.throttlePolicy = named.policy;
    cfg.hwFilter = named.hwFilter;
    cfg.grpCoarse = named.grpCoarse;
    cfg.idealLds = named.idealLds;
    cfg.hints = stackRunsEcdp(cfg.engines) ? hints : nullptr;
    return cfg;
}

bool
nameNeedsHints(const std::string &name)
{
    return stackRunsEcdp(row(name).engines);
}

const std::vector<std::string> &
knownNames()
{
    static const std::vector<std::string> names = namesOf(kNamed);
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
        const SystemConfig baseline = configs::byName("baseline");
        for (const std::string &member : mix) {
            workloads.push_back(&workload(member, input));
            alone.push_back(run(member, baseline, "baseline", input).ipc);
        }
        MultiCoreResult result;
        traced(name + ":" + label, [&](const Observability &obs) {
            result = simulateMultiCore(cfg, workloads, alone, obs);
        });
        return result;
    });
}

} // namespace ecdp
