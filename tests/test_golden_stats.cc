/**
 * @file
 * Golden-stats regression: the full RunStats JSON of small
 * deterministic train-input runs — one per configs::knownNames()
 * entry plus two engine-stack widths — is pinned under tests/golden/
 * and compared field by field. Any behavioural change to the
 * simulator — counter drift, a new accounting site, a changed
 * threshold — shows up as a named-field diff here before it shows up
 * as a mysterious shift in a paper figure.
 *
 * Number comparison uses the parser's source text, so even a change
 * below double precision in a 64-bit counter fails loudly.
 * Regenerate after an intentional change with tools/update_golden.sh,
 * and bump kStatsSchema with it (see the digest pin below).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "named_cells.hh"
#include "server/cell.hh"
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

/** One pinned run: a named config on the train input, optionally
 *  with its engine stack replaced (ecdpsim --engines). */
struct GoldenCase
{
    const char *bench;
    const char *config;
    /** Comma-separated engine stack; empty keeps the config's. */
    const char *engines;
};

// Keeps the listed parameter (and so the test ID) free of pointer
// bytes, which change with ASLR.
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.bench << ":" << c.config;
    if (*c.engines)
        *os << "[" << c.engines << "]";
}

// Keep in step with tools/update_golden.sh: every configs::knownNames()
// entry, each on a cell where its mechanism acts, plus a one-slot and
// a three-slot engine stack.
constexpr GoldenCase kCases[] = {
    {"health", "baseline", ""},
    {"mst", "cdp+throttle", ""},
    {"bisort", "full", ""},
    {"mst", "noprefetch", ""},
    // Greedy CDP long enough to cross 3 interval boundaries.
    {"pfast", "cdp", ""},
    {"bisort", "ecdp", ""},
    {"mst", "dbp", ""},
    {"bisort", "markov", ""},
    {"health", "ghb", ""},
    // Coordinated throttling moves the GHB slot's level.
    {"health", "ghb+ecdp", ""},
    {"mst", "cdp+filter", ""},
    // FDP moves both slots down to level 1.
    {"bisort", "ecdp+fdp", ""},
    // PAB disables a slot at every interval boundary.
    {"bisort", "cdp+pab", ""},
    {"xalancbmk", "grp", ""},
    {"mst", "ideal-lds", ""},
    // Stack widths other than two: the "engines" array, and for three
    // slots the per-interval "extra" entries.
    {"omnetpp", "cdp+throttle", "stream"},
    {"bisort", "cdp+throttle", "stream,cdp,isb"},
};

/** The golden file and test name: the cell with '+', '-' and ','
 *  spelled '_' (tools/update_golden.sh names files the same way). */
std::string
caseStem(const GoldenCase &c)
{
    std::string stem = cells::testName(c.bench, c.config);
    if (*c.engines) {
        stem += "_";
        for (char ch : std::string(c.engines))
            stem += ch == ',' || ch == '+' || ch == '-' ? '_' : ch;
    }
    return stem;
}

/** The cell ecdpsim --config/--engines --input train resolves. */
server::CellSpec
caseCell(const GoldenCase &c)
{
    server::CellSpec cell;
    cell.bench = c.bench;
    cell.config = c.config;
    cell.input = "train";
    std::stringstream ss(c.engines);
    std::string name;
    while (std::getline(ss, name, ','))
        cell.engines.push_back(name);
    return cell;
}

std::string
generate(const GoldenCase &c)
{
    const server::CellSpec cell = caseCell(c);
    const HintTable *hints = server::cellNeedsHints(cell)
                                 ? &cells::trainHints(c.bench)
                                 : nullptr;
    const SystemConfig cfg = server::makeCellConfig(cell, hints);
    RunStats stats =
        simulate(cfg, buildWorkload(c.bench, InputSet::Train));
    std::ostringstream os;
    writeRunStatsJson(os, stats, server::cellLabel(cell));
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
        std::string(ECDP_GOLDEN_DIR) + "/" + caseStem(c) + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run tools/update_golden.sh";
    std::stringstream ss;
    ss << in.rdbuf();

    JsonValue golden = parseJson(ss.str());
    JsonValue fresh = parseJson(generate(c));
    compareValues(golden, fresh,
                  std::string(c.bench) + ":" +
                      server::cellLabel(caseCell(c)));
}

INSTANTIATE_TEST_SUITE_P(
    TinyRuns, GoldenStatsTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return caseStem(info.param);
    });

TEST(GoldenStatsCoverage, EveryKnownConfigHasAGolden)
{
    for (const std::string &name : configs::knownNames()) {
        const bool pinned = std::any_of(
            std::begin(kCases), std::end(kCases),
            [&](const GoldenCase &c) { return name == c.config; });
        EXPECT_TRUE(pinned)
            << "configs::knownNames() entry \"" << name
            << "\" has no golden: add a cell to kCases and to "
               "tools/update_golden.sh";
    }
}

TEST(GoldenStatsCoverage, GoldenBytesArePinnedToTheStatsSchema)
{
    // The goldens are what runs report. Bytes spilled by ecdpd or
    // ECDP_RESULT_CACHE before a golden changed are stale after it,
    // and only a kStatsSchema bump keeps them from being served: a
    // change to tests/golden must bump the schema and re-pin both
    // values here together.
    constexpr std::uint64_t kPinnedSchema = 5;
    constexpr std::uint64_t kPinnedDigest = 0x0e52989199a2b06eull;

    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(ECDP_GOLDEN_DIR)) {
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::uint64_t digest = 0xcbf29ce484222325ull; // FNV-1a 64
    for (const std::filesystem::path &file : files) {
        std::ifstream in(file, std::ios::binary);
        std::ostringstream bytes;
        bytes << file.filename().string() << '\0' << in.rdbuf();
        for (unsigned char c : bytes.str()) {
            digest ^= c;
            digest *= 0x100000001b3ull;
        }
    }
    EXPECT_EQ(files.size(), std::size(kCases));
    EXPECT_EQ(kStatsSchema, kPinnedSchema);
    EXPECT_EQ(digest, kPinnedDigest)
        << "tests/golden changed: bump kStatsSchema (stats/json.hh) "
           "and pin it here with digest 0x"
        << std::hex << digest;
}

} // namespace
} // namespace ecdp
