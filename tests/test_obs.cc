/**
 * @file
 * Tests for the observability layer itself: metric-registry
 * semantics, event-ring wraparound, Chrome trace JSON export, and
 * the guarantees the rest of the harness depends on — observability
 * never changes simulated behaviour, and tracing composes with the
 * parallel experiment runner.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/observability.hh"
#include "obs/trace_session.hh"
#include "runner/thread_pool.hh"
#include "server/result_store.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace
{

// ---------------------------------------------------------------
// Metric registry.
// ---------------------------------------------------------------

TEST(MetricRegistry, CounterReferencesAreStable)
{
    obs::MetricRegistry registry;
    obs::Counter &a = registry.counter("a.first");
    // Force rebalancing with many more registrations.
    for (int i = 0; i < 100; ++i)
        registry.counter("b.bulk" + std::to_string(i));
    a.add(7);
    a.inc();
    EXPECT_EQ(registry.value("a.first"), 8u);
    EXPECT_EQ(&registry.counter("a.first"), &a);
}

TEST(MetricRegistry, SortedIsLexicographic)
{
    obs::MetricRegistry registry;
    registry.counter("core1.z").set(1);
    registry.counter("core0.a").set(2);
    registry.counter("core0.b").set(3);
    auto all = registry.sorted();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0].first, "core0.a");
    EXPECT_EQ(all[1].first, "core0.b");
    EXPECT_EQ(all[2].first, "core1.z");

    auto core0 = registry.sortedWithPrefix("core0.");
    ASSERT_EQ(core0.size(), 2u);
    EXPECT_EQ(core0[0].second, 2u);
}

TEST(MetricRegistry, FindDoesNotCreate)
{
    obs::MetricRegistry registry;
    EXPECT_EQ(registry.find("nope"), nullptr);
    EXPECT_EQ(registry.size(), 0u);
    registry.counter("yes");
    EXPECT_NE(registry.find("yes"), nullptr);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricScope, NestsPrefixes)
{
    obs::MetricRegistry registry;
    obs::MetricScope core(registry, "core2.");
    obs::MetricScope pf = core.scope("pf.lds.");
    pf.counter("issued").add(5);
    EXPECT_EQ(registry.value("core2.pf.lds.issued"), 5u);
    EXPECT_EQ(pf.prefix(), "core2.pf.lds.");
}

// ---------------------------------------------------------------
// Event ring.
// ---------------------------------------------------------------

obs::TraceEvent
eventAt(Cycle cycle)
{
    obs::TraceEvent event;
    event.type = obs::EventType::DemandMiss;
    event.cycle = cycle;
    return event;
}

TEST(EventTracer, HoldsEverythingUnderCapacity)
{
    obs::EventTracer tracer(8);
    for (Cycle c{}; c < Cycle{5}; ++c)
        tracer.record(eventAt(c));
    EXPECT_EQ(tracer.size(), 5u);
    EXPECT_EQ(tracer.overwritten(), 0u);
    auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (Cycle c{}; c < Cycle{5}; ++c)
        EXPECT_EQ(events[c.raw()].cycle, c);
}

TEST(EventTracer, WraparoundKeepsNewest)
{
    obs::EventTracer tracer(4);
    for (Cycle c{}; c < Cycle{10}; ++c)
        tracer.record(eventAt(c));
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.capacity(), 4u);
    EXPECT_EQ(tracer.overwritten(), 6u);
    auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // The newest window survives, oldest first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].cycle, Cycle{6 + i});
}

TEST(EventTracer, ForEachMatchesSnapshot)
{
    obs::EventTracer tracer(4);
    for (Cycle c{}; c < Cycle{6}; ++c)
        tracer.record(eventAt(c));
    std::vector<Cycle> seen;
    tracer.forEach(
        [&](const obs::TraceEvent &e) { seen.push_back(e.cycle); });
    auto events = tracer.snapshot();
    ASSERT_EQ(seen.size(), events.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], events[i].cycle);
}

TEST(EventTracer, ControlEventsSurviveFloods)
{
    // Throttle transitions and interval samples live in their own
    // lane: a flood of per-prefetch events must not evict them.
    obs::EventTracer tracer(8);

    obs::TraceEvent transition;
    transition.type = obs::EventType::ThrottleTransition;
    transition.cycle = Cycle{10};
    tracer.record(transition);

    for (Cycle c{100}; c < Cycle{1100}; ++c)
        tracer.record(eventAt(c));

    bool found = false;
    Cycle last{};
    tracer.forEach([&](const obs::TraceEvent &event) {
        if (event.type == obs::EventType::ThrottleTransition)
            found = true;
        EXPECT_GE(event.cycle, last); // merged in time order
        last = event.cycle;
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(tracer.size(), 9u); // 8 newest misses + the transition
}

TEST(EventTracer, CapacityFromEnv)
{
    unsetenv("ECDP_TRACE_CAPACITY");
    EXPECT_EQ(obs::EventTracer::capacityFromEnv(),
              obs::EventTracer::kDefaultCapacity);
    setenv("ECDP_TRACE_CAPACITY", "1024", 1);
    EXPECT_EQ(obs::EventTracer::capacityFromEnv(), 1024u);
    setenv("ECDP_TRACE_CAPACITY", "garbage", 1);
    EXPECT_EQ(obs::EventTracer::capacityFromEnv(),
              obs::EventTracer::kDefaultCapacity);
    unsetenv("ECDP_TRACE_CAPACITY");
}

TEST(EventTracer, NamesAreStable)
{
    EXPECT_STREQ(
        obs::eventTypeName(obs::EventType::ThrottleTransition),
        "throttle-transition");
    EXPECT_STREQ(obs::eventTypeName(obs::EventType::PrefetchDrop),
                 "prefetch-drop");
    EXPECT_STREQ(obs::dropReasonName(obs::DropReason::QueueFull),
                 "queue-full");
    EXPECT_STREQ(obs::dropReasonName(obs::DropReason::HwFilter),
                 "hw-filter");
}

// ---------------------------------------------------------------
// Chrome trace JSON export.
// ---------------------------------------------------------------

std::string
tempTracePath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(TraceSession, EmptySessionIsValidJson)
{
    const std::string path = tempTracePath("empty_trace.json");
    {
        obs::TraceSession session(path);
        ASSERT_TRUE(session.ok());
        session.close();
    }
    JsonValue doc = parseJson(slurp(path));
    EXPECT_TRUE(doc.at("traceEvents").asArray().empty());
}

TEST(TraceSession, FlushedRunsParseAndCarryLabels)
{
    const std::string path = tempTracePath("two_runs.json");
    obs::TraceSession session(path);
    ASSERT_TRUE(session.ok());

    obs::EventTracer tracer;
    obs::TraceEvent miss = eventAt(Cycle{100});
    miss.addr = 0x1000;
    tracer.record(miss);

    obs::TraceEvent drop;
    drop.type = obs::EventType::PrefetchDrop;
    drop.source = 1;
    drop.a = static_cast<std::uint8_t>(obs::DropReason::HwFilter);
    drop.cycle = Cycle{200};
    tracer.record(drop);

    unsigned pid_a = session.flush("health:full", tracer);
    unsigned pid_b = session.flush("mst:cdp", tracer);
    EXPECT_NE(pid_a, pid_b);
    EXPECT_EQ(session.runsFlushed(), 2u);
    session.close();

    JsonValue doc = parseJson(slurp(path));
    const auto &events = doc.at("traceEvents").asArray();
    // Two runs x (1 metadata + 2 events).
    ASSERT_EQ(events.size(), 6u);

    int labels = 0, drops = 0;
    for (const JsonValue &event : events) {
        const std::string name = event.at("name").asString();
        if (event.at("ph").asString() == "M") {
            EXPECT_EQ(name, "process_name");
            const std::string label =
                event.at("args").at("name").asString();
            EXPECT_TRUE(label == "health:full" || label == "mst:cdp");
            ++labels;
        } else if (name == "prefetch-drop") {
            EXPECT_EQ(event.at("args").at("reason").asString(),
                      "hw-filter");
            EXPECT_EQ(event.at("args").at("pf").asString(), "lds");
            EXPECT_EQ(event.at("ts").asU64(), 200u);
            ++drops;
        }
    }
    EXPECT_EQ(labels, 2);
    EXPECT_EQ(drops, 2);
}

TEST(TraceSession, ThrottleTransitionEmitsCounterTrack)
{
    const std::string path = tempTracePath("throttle_trace.json");
    obs::TraceSession session(path);
    ASSERT_TRUE(session.ok());

    obs::EventTracer tracer;
    obs::TraceEvent event;
    event.type = obs::EventType::ThrottleTransition;
    event.source = 0;
    event.a = 3; // from Aggressive
    event.b = 2; // to Moderate
    event.cycle = Cycle{5000};
    tracer.record(event);
    session.flush("health:cdp+throttle", tracer);
    session.close();

    JsonValue doc = parseJson(slurp(path));
    bool instant = false, counter = false;
    for (const JsonValue &entry : doc.at("traceEvents").asArray()) {
        const std::string name = entry.at("name").asString();
        if (name == "throttle-transition") {
            EXPECT_EQ(entry.at("ph").asString(), "i");
            EXPECT_EQ(entry.at("args").at("from").asU64(), 3u);
            EXPECT_EQ(entry.at("args").at("to").asU64(), 2u);
            instant = true;
        } else if (name == "agg-level.primary") {
            EXPECT_EQ(entry.at("ph").asString(), "C");
            EXPECT_EQ(entry.at("args").at("level").asU64(), 2u);
            counter = true;
        }
    }
    EXPECT_TRUE(instant);
    EXPECT_TRUE(counter);
}

TEST(TraceSession, CloseIsIdempotent)
{
    const std::string path = tempTracePath("close_twice.json");
    obs::TraceSession session(path);
    session.close();
    session.close();
    JsonValue doc = parseJson(slurp(path));
    EXPECT_TRUE(doc.at("traceEvents").asArray().empty());
}

// ---------------------------------------------------------------
// Observability must never change simulated behaviour.
// ---------------------------------------------------------------

std::string
statsFingerprint(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats, "probe");
    return os.str();
}

TEST(ObservedSimulation, TraceContainsDropAndIntervalEvents)
{
    Workload workload = buildWorkload("health", InputSet::Train);
    SystemConfig cfg = configs::byName("cdp+throttle");
    // The train run is short; shrink the feedback interval so several
    // interval boundaries (and their samples) actually occur.
    cfg.intervalEvictions = 128;

    obs::MetricRegistry metrics;
    obs::EventTracer tracer;
    simulate(cfg, workload, Observability{&metrics, &tracer});

    std::uint64_t drops = 0, samples = 0, fills = 0;
    tracer.forEach([&](const obs::TraceEvent &event) {
        switch (event.type) {
        case obs::EventType::PrefetchDrop:
            ++drops;
            break;
        case obs::EventType::IntervalSample:
            ++samples;
            break;
        case obs::EventType::PrefetchFill:
            ++fills;
            break;
        default:
            break;
        }
    });
    EXPECT_GT(drops, 0u);
    EXPECT_GT(fills, 0u);
    // Two prefetchers sampled at every feedback interval.
    EXPECT_GT(samples, 0u);
    EXPECT_EQ(samples % 2, 0u);
}

// ---------------------------------------------------------------
// Tracing composes with the experiment harness.
// ---------------------------------------------------------------

TEST(TracedExperiments, MemoDeduplicatesFlushes)
{
    const std::string path = tempTracePath("memo_dedup.json");
    obs::TraceSession session(path);
    ASSERT_TRUE(session.ok());

    ExperimentContext context;
    context.setTraceSession(&session);

    SystemConfig cfg = configs::byName("baseline");
    runner::ThreadPool pool(4);
    for (int i = 0; i < 8; ++i) {
        pool.submit([&] {
            context.run("libquantum", cfg, "baseline");
        });
    }
    pool.wait();
    // Eight concurrent requests for the same (workload, config)
    // simulate — and flush — exactly once.
    EXPECT_EQ(session.runsFlushed(), 1u);
    session.close();

    JsonValue doc = parseJson(slurp(path));
    bool labelled = false;
    for (const JsonValue &event : doc.at("traceEvents").asArray()) {
        if (event.at("ph").asString() == "M" &&
            event.at("args").at("name").asString() ==
                "libquantum:baseline") {
            labelled = true;
        }
    }
    EXPECT_TRUE(labelled);
}

TEST(TracedExperiments, TracedResultsMatchUntraced)
{
    SystemConfig cfg = configs::byName("cdp");

    ExperimentContext untraced;
    const RunStats &plain = untraced.run("bisort", cfg, "cdp");

    const std::string path = tempTracePath("traced_results.json");
    obs::TraceSession session(path);
    ExperimentContext traced;
    traced.setTraceSession(&session);
    const RunStats &observed = traced.run("bisort", cfg, "cdp");

    EXPECT_EQ(statsFingerprint(plain), statsFingerprint(observed));
    session.close();
    parseJson(slurp(path)); // must stay well-formed
}

TEST(TracedExperiments, WarmSpillIsBypassedWhileTracing)
{
    // A store hit would skip the simulation and leave a hole in the
    // trace: with a session attached, a warm ECDP_RESULT_CACHE spill
    // must not be loaded — the run simulates and flushes, with the
    // very stats the spill holds.
    const std::string dir = testing::TempDir() + "/ecdp_trace_bypass";
    std::filesystem::remove_all(dir);
    ::setenv("ECDP_RESULT_CACHE", dir.c_str(), 1);
    const SystemConfig cfg = configs::byName("baseline");

    std::string spilled;
    {
        ExperimentContext warm;
        warm.setTraceSession(nullptr);
        spilled = statsFingerprint(
            warm.run("libquantum", cfg, "baseline"));
    }
    ASSERT_TRUE(std::filesystem::exists(
        dir + "/" +
        server::ResultStore::entryFileName(runKey("libquantum", cfg))));

    const std::string path = tempTracePath("warm_spill_bypass.json");
    obs::TraceSession session(path);
    ExperimentContext traced;
    traced.setTraceSession(&session);
    const RunStats &observed = traced.run("libquantum", cfg, "baseline");
    EXPECT_EQ(session.runsFlushed(), 1u);
    EXPECT_EQ(statsFingerprint(observed), spilled);

    ::unsetenv("ECDP_RESULT_CACHE");
    session.close();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ecdp
