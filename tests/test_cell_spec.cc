// The grid-cell wire format: strict parsing (unknown members and
// names are 400s, never silent defaults), canonicalization (fixed
// key order, defaults omitted) and the content addressing that makes
// semantically identical submissions share one store entry.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "server/cell.hh"
#include "stats/json.hh"

namespace
{

using namespace ecdp;
using namespace ecdp::server;

CellSpec
parse(const std::string &json)
{
    return parseCellSpec(parseJson(json));
}

TEST(CellSpec, ParsesMinimalCellWithDefaults)
{
    CellSpec spec = parse("{\"bench\":\"mst\"}");
    EXPECT_EQ(spec.bench, "mst");
    EXPECT_EQ(spec.config, "baseline");
    EXPECT_EQ(spec.input, "ref");
    EXPECT_TRUE(spec.engines.empty());
    EXPECT_EQ(spec.throttlePolicy, "");
    EXPECT_EQ(spec.rlSeed, -1);
    EXPECT_EQ(spec.tcov, -1.0);
    EXPECT_EQ(spec.interval, -1);
}

TEST(CellSpec, ParsesEveryKnob)
{
    CellSpec spec = parse(
        "{\"bench\":\"health\",\"config\":\"cdp\","
        "\"input\":\"train\",\"engines\":[\"stream\",\"isb\"],"
        "\"throttlePolicy\":\"tabular-rl\",\"rlSeed\":7,"
        "\"tcov\":0.25,\"interval\":512}");
    EXPECT_EQ(spec.bench, "health");
    EXPECT_EQ(spec.config, "cdp");
    EXPECT_EQ(spec.input, "train");
    ASSERT_EQ(spec.engines.size(), 2u);
    EXPECT_EQ(spec.engines[0], "stream");
    EXPECT_EQ(spec.engines[1], "isb");
    EXPECT_EQ(spec.throttlePolicy, "tabular-rl");
    EXPECT_EQ(spec.rlSeed, 7);
    EXPECT_EQ(spec.tcov, 0.25);
    EXPECT_EQ(spec.interval, 512);
}

TEST(CellSpec, RejectsBadInput)
{
    // A typo can never silently select a default.
    EXPECT_THROW(parse("{\"bench\":\"mst\",\"benchh\":\"x\"}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"config\":\"baseline\"}"),
                 std::runtime_error); // bench missing
    EXPECT_THROW(parse("{\"bench\":\"no-such-workload\"}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"bench\":\"mst\",\"config\":\"nope\"}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"bench\":\"mst\",\"input\":\"test\"}"),
                 std::runtime_error);
    // The engine/policy registries throw invalid_argument listing
    // every known name; the daemon turns any std::exception into 400.
    EXPECT_THROW(
        parse("{\"bench\":\"mst\",\"engines\":[\"warp-drive\"]}"),
        std::invalid_argument);
    EXPECT_THROW(
        parse("{\"bench\":\"mst\",\"throttlePolicy\":\"chaotic\"}"),
        std::invalid_argument);
    EXPECT_THROW(parse("{\"bench\":\"mst\",\"rlSeed\":-3}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"bench\":\"mst\",\"rlSeed\":1.5}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"bench\":\"mst\",\"tcov\":1.5}"),
                 std::runtime_error);
    EXPECT_THROW(parse("{\"bench\":\"mst\",\"interval\":0}"),
                 std::runtime_error);
}

TEST(CellSpec, CanonicalJsonHasFixedOrderAndOmitsDefaults)
{
    EXPECT_EQ(canonicalCellJson(parse("{\"bench\":\"mst\"}")),
              "{\"bench\":\"mst\",\"config\":\"baseline\"}");
    // Members appear in canonical order regardless of input order,
    // and non-default knobs are all present.
    EXPECT_EQ(
        canonicalCellJson(parse(
            "{\"interval\":512,\"tcov\":0.25,\"rlSeed\":7,"
            "\"throttlePolicy\":\"tabular-rl\","
            "\"engines\":[\"stream\"],\"input\":\"train\","
            "\"config\":\"cdp\",\"bench\":\"health\"}")),
        "{\"bench\":\"health\",\"config\":\"cdp\","
        "\"input\":\"train\",\"engines\":[\"stream\"],"
        "\"throttlePolicy\":\"tabular-rl\",\"rlSeed\":7,"
        "\"tcov\":0.25,\"interval\":512}");
}

TEST(CellSpec, SemanticallyIdenticalSpecsShareOneKey)
{
    // Different member order, explicit defaults: same content key.
    const std::uint64_t implicit = cellKey(parse(
        "{\"bench\":\"mst\"}"));
    const std::uint64_t explicitDefaults = cellKey(parse(
        "{\"input\":\"ref\",\"config\":\"baseline\","
        "\"bench\":\"mst\"}"));
    EXPECT_EQ(implicit, explicitDefaults);

    // Any semantic difference changes the key.
    EXPECT_NE(implicit, cellKey(parse(
                            "{\"bench\":\"mst\","
                            "\"input\":\"train\"}")));
    EXPECT_NE(implicit, cellKey(parse(
                            "{\"bench\":\"mst\","
                            "\"config\":\"cdp\"}")));
    EXPECT_NE(implicit, cellKey(parse(
                            "{\"bench\":\"health\"}")));
}

TEST(CellSpec, LabelMatchesEcdpsimConvention)
{
    EXPECT_EQ(cellLabel(parse("{\"bench\":\"mst\"}")), "baseline");
    EXPECT_EQ(cellLabel(parse(
                  "{\"bench\":\"mst\",\"config\":\"cdp\","
                  "\"engines\":[\"stream\",\"cdp\",\"isb\"],"
                  "\"throttlePolicy\":\"tabular-rl\"}")),
              "cdp[stream,cdp,isb]{tabular-rl}");
}

TEST(CellSpec, StatsJsonCarriesTheCellLabel)
{
    // The stored bytes name the cell's config label — the same
    // string ecdpsim --json prints for that configuration.
    ExperimentContext ctx;
    CellSpec spec = parse(
        "{\"bench\":\"mst\",\"input\":\"train\"}");
    const std::string bytes =
        cellStatsJson(spec, runCell(spec, ctx));
    JsonValue doc = parseJson(bytes);
    EXPECT_EQ(doc.at("workload").asString(), "mst");
    EXPECT_EQ(doc.at("config").asString(), "baseline");
    // No trailing newline: the byte-identity contract is exact.
    ASSERT_FALSE(bytes.empty());
    EXPECT_NE(bytes.back(), '\n');
}

TEST(CellSpec, EcdpStackOnAHintlessConfigGetsTheHints)
{
    // "baseline" takes no hints, but a stack naming ecdp needs them:
    // the cell must run exactly like the named "ecdp" config instead
    // of failing in the engine factory.
    ExperimentContext ctx;
    const CellSpec stack = parse(
        "{\"bench\":\"health\",\"config\":\"baseline\","
        "\"engines\":[\"stream\",\"ecdp\"],\"input\":\"train\"}");
    const CellSpec named = parse(
        "{\"bench\":\"health\",\"config\":\"ecdp\","
        "\"input\":\"train\"}");
    EXPECT_TRUE(cellNeedsHints(stack));
    std::ostringstream viaStack, viaName;
    writeRunStatsJson(viaStack, runCell(stack, ctx));
    writeRunStatsJson(viaName, runCell(named, ctx));
    EXPECT_EQ(viaStack.str(), viaName.str());
}

} // namespace
