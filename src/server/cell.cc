#include "server/cell.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "prefetch/engine.hh"
#include "stats/json.hh"
#include "throttle/throttle_policy.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace server
{

namespace
{

long
asLong(const JsonValue &v, const char *what)
{
    const std::string &text = v.numberText();
    if (text.find('.') != std::string::npos ||
        text.find('e') != std::string::npos ||
        text.find('E') != std::string::npos) {
        throw std::runtime_error(std::string(what) +
                                 " must be an integer");
    }
    return static_cast<long>(v.asI64());
}

} // namespace

CellSpec
parseCellSpec(const JsonValue &v)
{
    CellSpec spec;
    for (const auto &[key, value] : v.asObject()) {
        if (key == "bench") {
            spec.bench = value.asString();
        } else if (key == "config") {
            spec.config = value.asString();
        } else if (key == "input") {
            spec.input = value.asString();
        } else if (key == "engines") {
            for (const JsonValue &e : value.asArray())
                spec.engines.push_back(e.asString());
        } else if (key == "throttlePolicy") {
            spec.throttlePolicy = value.asString();
        } else if (key == "rlSeed") {
            spec.rlSeed = asLong(value, "rlSeed");
            if (spec.rlSeed < 0)
                throw std::runtime_error("rlSeed must be >= 0");
        } else if (key == "tcov") {
            spec.tcov = value.asDouble();
            if (spec.tcov < 0.0 || spec.tcov > 1.0)
                throw std::runtime_error("tcov must be in [0,1]");
        } else if (key == "interval") {
            spec.interval = asLong(value, "interval");
            if (spec.interval <= 0)
                throw std::runtime_error("interval must be > 0");
        } else {
            throw std::runtime_error("unknown cell member \"" + key +
                                     "\"");
        }
    }

    if (spec.bench.empty())
        throw std::runtime_error("cell needs a \"bench\" member");
    if (!findBenchmark(spec.bench))
        throw std::runtime_error("unknown benchmark '" + spec.bench +
                                 "'");
    if (spec.input != "ref" && spec.input != "train")
        throw std::runtime_error("input must be \"ref\" or \"train\"");
    // Validate names up front with the registries' diagnostics (they
    // list every known name) instead of failing mid-simulation in a
    // worker.
    configs::byName(spec.config, nullptr);
    for (const std::string &engine : spec.engines) {
        if (!EngineRegistry::instance().contains(engine))
            EngineRegistry::instance().create(engine,
                                              EngineContext{});
    }
    if (!spec.throttlePolicy.empty() &&
        !PolicyRegistry::instance().contains(spec.throttlePolicy)) {
        PolicyRegistry::instance().create(spec.throttlePolicy,
                                          PolicyContext{});
    }
    return spec;
}

std::string
canonicalCellJson(const CellSpec &spec)
{
    std::ostringstream os;
    os << "{\"bench\":\"" << jsonEscape(spec.bench) << "\"";
    os << ",\"config\":\"" << jsonEscape(spec.config) << "\"";
    if (spec.input != "ref")
        os << ",\"input\":\"" << jsonEscape(spec.input) << "\"";
    if (!spec.engines.empty()) {
        os << ",\"engines\":[";
        for (std::size_t i = 0; i < spec.engines.size(); ++i) {
            os << (i ? "," : "") << "\"" << jsonEscape(spec.engines[i])
               << "\"";
        }
        os << "]";
    }
    if (!spec.throttlePolicy.empty()) {
        os << ",\"throttlePolicy\":\""
           << jsonEscape(spec.throttlePolicy) << "\"";
    }
    if (spec.rlSeed >= 0)
        os << ",\"rlSeed\":" << spec.rlSeed;
    if (spec.tcov >= 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", spec.tcov);
        os << ",\"tcov\":" << buf;
    }
    if (spec.interval > 0)
        os << ",\"interval\":" << spec.interval;
    os << "}";
    return os.str();
}

std::uint64_t
cellKey(const CellSpec &spec)
{
    return resultKey(canonicalCellJson(spec));
}

std::string
cellLabel(const CellSpec &spec)
{
    std::string label = spec.config;
    if (!spec.engines.empty()) {
        label += "[";
        for (std::size_t i = 0; i < spec.engines.size(); ++i)
            label += (i ? "," : "") + spec.engines[i];
        label += "]";
    }
    if (!spec.throttlePolicy.empty())
        label += "{" + spec.throttlePolicy + "}";
    return label;
}

bool
cellNeedsHints(const CellSpec &spec)
{
    return configs::nameNeedsHints(spec.config) ||
           std::find(spec.engines.begin(), spec.engines.end(),
                     "ecdp") != spec.engines.end();
}

SystemConfig
makeCellConfig(const CellSpec &spec, const HintTable *hints)
{
    SystemConfig cfg = configs::byName(spec.config, hints);
    if (!spec.engines.empty())
        cfg.engines = spec.engines;
    // A stack naming ecdp needs the hints even when the named config
    // (e.g. "baseline") takes none.
    if (std::find(cfg.engines.begin(), cfg.engines.end(), "ecdp") !=
        cfg.engines.end())
        cfg.hints = hints;
    if (!spec.throttlePolicy.empty())
        cfg.throttlePolicy = spec.throttlePolicy;
    if (spec.rlSeed >= 0)
        cfg.throttleRlSeed =
            static_cast<std::uint64_t>(spec.rlSeed);
    if (spec.tcov >= 0.0)
        cfg.coordThresholds.tCoverage = spec.tcov;
    if (spec.interval > 0)
        cfg.intervalEvictions =
            static_cast<std::uint64_t>(spec.interval);
    return cfg;
}

RunStats
runCell(const CellSpec &spec, ExperimentContext &ctx)
{
    const SystemConfig cfg = makeCellConfig(
        spec, cellNeedsHints(spec) ? &ctx.hints(spec.bench) : nullptr);
    if (spec.input == "train") {
        // The memo context runs ref inputs; train cells simulate
        // directly (still deterministic, still byte-stable).
        return simulate(cfg,
                        buildWorkload(spec.bench, InputSet::Train));
    }
    // The diagnostic label carries the content key: two cells can
    // share a config name but differ in knobs (tcov, rlSeed, ...),
    // and the context rejects label reuse across different configs.
    char keyHex[20];
    std::snprintf(keyHex, sizeof(keyHex), "%016llx",
                  static_cast<unsigned long long>(cellKey(spec)));
    return ctx.run(spec.bench, cfg,
                   cellLabel(spec) + "#" + keyHex);
}

std::string
cellStatsJson(const CellSpec &spec, const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, cellLabel(spec));
    return os.str();
}

} // namespace server
} // namespace ecdp
