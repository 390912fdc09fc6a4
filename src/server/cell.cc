#include "server/cell.hh"

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

InputSet
inputSet(const CellSpec &spec)
{
    return spec.input == "train" ? InputSet::Train : InputSet::Ref;
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
        } else if (key == "tcov") {
            spec.tcov = value.asDouble();
        } else if (key == "interval") {
            spec.interval = asLong(value, "interval");
        } else {
            throw std::runtime_error("unknown cell member \"" + key +
                                     "\"");
        }
    }

    if (spec.bench.empty())
        throw std::runtime_error("cell needs a \"bench\" member");
    validateCellSpec(spec);
    return spec;
}

void
validateCellSpec(const CellSpec &spec)
{
    if (!spec.bench.empty() && !findBenchmark(spec.bench))
        throw std::runtime_error("unknown benchmark '" + spec.bench +
                                 "'");
    if (spec.input != "ref" && spec.input != "train")
        throw std::runtime_error("input must be \"ref\" or \"train\"");
    // Check names up front instead of failing mid-simulation in a
    // worker: each lookup throws a diagnostic listing the known names.
    configs::nameNeedsHints(spec.config);
    for (const std::string &engine : spec.engines)
        findEngine(engine);
    if (!spec.throttlePolicy.empty())
        findPolicy(spec.throttlePolicy);
    // -1 is the "keep the config's" sentinel of each knob.
    if (spec.rlSeed < -1)
        throw std::runtime_error("rlSeed must be >= 0");
    if (spec.tcov != -1.0 && !(spec.tcov >= 0.0 && spec.tcov <= 1.0))
        throw std::runtime_error("tcov must be in [0,1]");
    if (spec.interval != -1 && spec.interval <= 0)
        throw std::runtime_error("interval must be > 0");
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
    return spec.engines.empty() ? configs::nameNeedsHints(spec.config)
                                : configs::stackRunsEcdp(spec.engines);
}

SystemConfig
makeCellConfig(const CellSpec &spec, const HintTable *hints)
{
    SystemConfig cfg = configs::byName(spec.config);
    if (!spec.engines.empty())
        cfg.engines = spec.engines;
    cfg.hints = configs::stackRunsEcdp(cfg.engines) ? hints : nullptr;
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

const RunStats &
runCell(const CellSpec &spec, ExperimentContext &ctx)
{
    const SystemConfig cfg = makeCellConfig(
        spec, cellNeedsHints(spec) ? &ctx.hints(spec.bench) : nullptr);
    return ctx.run(spec.bench, cfg, cellLabel(spec), inputSet(spec));
}

const MultiCoreResult &
runMix(const CellSpec &spec, const std::vector<std::string> &mix,
       ExperimentContext &ctx)
{
    const SystemConfig cfg = makeCellConfig(
        spec, cellNeedsHints(spec) ? &ctx.mixHints(mix) : nullptr);
    return ctx.runMix(mix, cfg, cellLabel(spec), inputSet(spec));
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
