/**
 * @file
 * Golden-stats regression: the full RunStats JSON of three small
 * deterministic runs is pinned under tests/golden/ and compared
 * field by field. Any behavioural change to the simulator — counter
 * drift, a new accounting site, a changed threshold — shows up as a
 * named-field diff here before it shows up as a mysterious shift in
 * a paper figure.
 *
 * Number comparison uses the parser's source text, so even a change
 * below double precision in a 64-bit counter fails loudly.
 * Regenerate after an intentional change with tools/update_golden.sh.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

#ifndef ECDP_GOLDEN_DIR
#error "ECDP_GOLDEN_DIR must point at tests/golden"
#endif

namespace ecdp
{
namespace
{

struct GoldenCase
{
    const char *bench;
    const char *config;
    const char *file;
};

// Keeps the listed parameter (and so the test ID) free of pointer
// bytes, which change with ASLR.
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.bench << ":" << c.config;
}

constexpr GoldenCase kCases[] = {
    {"health", "baseline", "health_baseline.json"},
    {"mst", "cdp+throttle", "mst_cdp_throttle.json"},
    {"bisort", "full", "bisort_full.json"},
};

SystemConfig
goldenConfig(const std::string &config, const HintTable &hints)
{
    // Mirrors ecdpsim --config so tools/update_golden.sh regenerates
    // byte-identical files through the command-line driver.
    if (config == "baseline")
        return configs::baseline();
    if (config == "cdp+throttle")
        return configs::streamCdpThrottled();
    if (config == "full")
        return configs::fullProposal(&hints);
    throw std::runtime_error("unknown golden config " + config);
}

std::string
generate(const GoldenCase &c)
{
    HintTable hints;
    if (std::string(c.config) == "full") {
        hints = ProfilingCompiler::profile(
            buildWorkload(c.bench, InputSet::Train));
    }
    SystemConfig cfg = goldenConfig(c.config, hints);
    RunStats stats =
        simulate(cfg, buildWorkload(c.bench, InputSet::Train));
    std::ostringstream os;
    writeRunStatsJson(os, stats, c.config);
    return os.str();
}

void
compareValues(const JsonValue &golden, const JsonValue &fresh,
              const std::string &path)
{
    ASSERT_EQ(golden.kind(), fresh.kind()) << "at " << path;
    switch (golden.kind()) {
    case JsonValue::Kind::Null:
        break;
    case JsonValue::Kind::Bool:
        EXPECT_EQ(golden.asBool(), fresh.asBool()) << "at " << path;
        break;
    case JsonValue::Kind::Number:
        EXPECT_EQ(golden.numberText(), fresh.numberText())
            << "at " << path;
        break;
    case JsonValue::Kind::String:
        EXPECT_EQ(golden.asString(), fresh.asString())
            << "at " << path;
        break;
    case JsonValue::Kind::Array: {
        const auto &a = golden.asArray();
        const auto &b = fresh.asArray();
        ASSERT_EQ(a.size(), b.size()) << "at " << path;
        for (std::size_t i = 0; i < a.size(); ++i) {
            compareValues(a[i], b[i],
                          path + "[" + std::to_string(i) + "]");
        }
        break;
    }
    case JsonValue::Kind::Object: {
        const auto &a = golden.asObject();
        const auto &b = fresh.asObject();
        for (const auto &[key, value] : a) {
            auto it = b.find(key);
            if (it == b.end()) {
                ADD_FAILURE()
                    << "field removed: " << path << "." << key;
                continue;
            }
            compareValues(value, it->second, path + "." + key);
        }
        for (const auto &[key, value] : b) {
            (void)value;
            if (a.find(key) == a.end()) {
                ADD_FAILURE() << "field added: " << path << "." << key
                              << " (run tools/update_golden.sh if "
                                 "intentional)";
            }
        }
        break;
    }
    }
}

class GoldenStatsTest : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenStatsTest, MatchesPinnedJson)
{
    const GoldenCase &c = GetParam();
    const std::string path =
        std::string(ECDP_GOLDEN_DIR) + "/" + c.file;
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run tools/update_golden.sh";
    std::stringstream ss;
    ss << in.rdbuf();

    JsonValue golden = parseJson(ss.str());
    JsonValue fresh = parseJson(generate(c));
    compareValues(golden, fresh, std::string(c.bench) + ":" +
                                     c.config);
}

INSTANTIATE_TEST_SUITE_P(
    TinyRuns, GoldenStatsTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.config;
        for (char &ch : name) {
            if (ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Differential golden: an explicit cfg.engines stack equal to the
// legacy derivation must reproduce the legacy two-slot run
// byte-for-byte. Together with the pinned files above, this proves
// explicit stacks reproduce the pre-registry simulator exactly over
// the full workload x config matrix (plus the 64 B block edge case).
// ---------------------------------------------------------------------

struct DifferentialCase
{
    const char *bench;
    const char *config;
};

constexpr DifferentialCase kDifferentialCases[] = {
    {"health", "baseline"},      {"mst", "cdp+throttle"},
    {"bisort", "full"},          {"perimeter", "ecdp+fdp"},
    {"health", "cdp+pab"},       {"mst", "dbp"},
    {"bisort", "markov"},        {"health", "side-buffer"},
    {"mst", "noprefetch"},       {"health", "small-blocks"},
};

const HintTable &
trainHints(const std::string &bench)
{
    static std::map<std::string, HintTable> cache;
    auto it = cache.find(bench);
    if (it == cache.end()) {
        it = cache
                 .emplace(bench,
                          ProfilingCompiler::profile(
                              buildWorkload(bench, InputSet::Train)))
                 .first;
    }
    return it->second;
}

SystemConfig
differentialConfig(const std::string &config, const std::string &bench)
{
    if (config == "baseline")
        return configs::baseline();
    if (config == "cdp+throttle")
        return configs::streamCdpThrottled();
    if (config == "full")
        return configs::fullProposal(&trainHints(bench));
    if (config == "ecdp+fdp")
        return configs::streamEcdpFdp(&trainHints(bench));
    if (config == "cdp+pab")
        return configs::streamCdpPab();
    if (config == "dbp")
        return configs::streamDbp();
    if (config == "markov")
        return configs::streamMarkov();
    if (config == "side-buffer") {
        SystemConfig cfg = configs::streamCdp();
        cfg.idealNoPollution = true;
        return cfg;
    }
    if (config == "noprefetch")
        return configs::noPrefetch();
    if (config == "small-blocks") {
        SystemConfig cfg = configs::baseline();
        cfg.l1BlockBytes = 64;
        cfg.l2BlockBytes = 64;
        return cfg;
    }
    throw std::runtime_error("unknown differential config " + config);
}

class EngineStackDifferentialTest
    : public ::testing::TestWithParam<DifferentialCase>
{
};

TEST_P(EngineStackDifferentialTest, ExplicitStackIsByteIdentical)
{
    const DifferentialCase &c = GetParam();
    const Workload workload = buildWorkload(c.bench, InputSet::Train);

    const SystemConfig legacy = differentialConfig(c.config, c.bench);
    SystemConfig explicitStack = legacy;
    explicitStack.engines = effectiveEngineStack(legacy);

    auto json = [&](const SystemConfig &cfg) {
        RunStats stats = simulate(cfg, workload);
        std::ostringstream os;
        writeRunStatsJson(os, stats, c.config);
        return os.str();
    };
    EXPECT_EQ(json(legacy), json(explicitStack));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineStackDifferentialTest,
    ::testing::ValuesIn(kDifferentialCases),
    [](const ::testing::TestParamInfo<DifferentialCase> &info) {
        std::string name = std::string(info.param.bench) + "_" +
                           info.param.config;
        for (char &ch : name) {
            if (ch == '+' || ch == '-')
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace ecdp
