/**
 * @file
 * serverbench — load generator for the ecdpd daemon (schema
 * BENCH_serverbench/v1, see EXPERIMENTS.md).
 *
 * Runs an in-process Daemon (so the pool/store internals are
 * observable) but drives it over real HTTP with real worker
 * processes, in two phases:
 *
 *   A  dedup storm: many grids drawn from a handful of unique cell
 *      specs are submitted back-to-back, then their results are
 *      awaited from parallel client threads. Proves (full mode) that
 *      >= 1000 cells were in flight simultaneously while the
 *      single-flight store collapsed them onto a few simulations.
 *   B  store replay: the same grids resubmitted must be served
 *      entirely from the materialized store — zero new
 *      simulations.
 *
 * Emits BENCH_serverbench.json (--out to rename, "-" for stdout):
 * sustained cell throughput, per-grid p50/p99 completion latency,
 * dedup hit rate, in-flight peak and replay throughput. --quick
 * shrinks the storm for CI smoke (the in-flight floor only applies
 * to the full run).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "memsim/parse_number.hh"
#include "runner/thread_pool.hh"
#include "server/daemon.hh"
#include "server/http_client.hh"
#include "stats/json.hh"

#ifndef ECDPD_BIN
#error "serverbench needs -DECDPD_BIN=\"path/to/ecdpd\""
#endif

namespace
{

using namespace ecdp;
using Clock = std::chrono::steady_clock;

struct BenchConfig
{
    bool quick = false;
    std::string out = "BENCH_serverbench.json";
    unsigned grids = 24;
    unsigned cellsPerGrid = 64;
    unsigned waiterThreads = 8;
    unsigned workers = 2;
    /** In-flight floor asserted after phase A (0 = don't). */
    std::uint64_t inflightFloor = 1000;
};

/** The unique specs of the storm: every grid cycles through these,
 *  so U specs cover G*C cells and the dedup rate is 1 - U/(G*C). */
const std::vector<std::string> &
uniqueSpecs()
{
    static const std::vector<std::string> specs = {
        "{\"bench\":\"health\",\"input\":\"train\"}",
        "{\"bench\":\"mst\",\"input\":\"train\"}",
        "{\"bench\":\"perimeter\",\"input\":\"train\"}",
        "{\"bench\":\"health\",\"config\":\"cdp\","
        "\"input\":\"train\"}",
        "{\"bench\":\"mst\",\"config\":\"cdp\",\"input\":\"train\"}",
        "{\"bench\":\"perimeter\",\"config\":\"cdp\","
        "\"input\":\"train\"}",
    };
    return specs;
}

std::string
gridBody(const BenchConfig &bench, unsigned grid, bool wait)
{
    const std::vector<std::string> &specs = uniqueSpecs();
    std::ostringstream os;
    os << "{\"client\":\"serverbench-" << (grid % 4)
       << "\",\"wait\":" << (wait ? "true" : "false")
       << ",\"cells\":[";
    for (unsigned i = 0; i < bench.cellsPerGrid; ++i) {
        os << (i ? "," : "")
           << specs[(grid + i) % unsigned(specs.size())];
    }
    os << "]}";
    return os.str();
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p * double(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - double(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

int
run(const BenchConfig &bench)
{
    server::DaemonOptions opts;
    opts.workers = bench.workers;
    opts.admissionLimit = 8192;
    opts.workerArgv = {ECDPD_BIN, "--worker"};
    server::Daemon daemon(opts);
    daemon.start();
    const std::uint16_t port = daemon.port();
    const unsigned totalCells = bench.grids * bench.cellsPerGrid;

    // --- Phase A: dedup storm -----------------------------------
    std::cerr << "serverbench: phase A — " << bench.grids << " grids x "
              << bench.cellsPerGrid << " cells ("
              << uniqueSpecs().size() << " unique) on port " << port
              << "\n";
    const Clock::time_point stormStart = Clock::now();
    std::vector<Clock::time_point> submitted(bench.grids);
    std::vector<std::string> gridIds(bench.grids);
    {
        // Submissions race the first leader completions, so they are
        // parallelized: the in-flight peak only reaches G*C if every
        // grid is admitted before cells start draining.
        const unsigned submitters = 4;
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < submitters; ++t) {
            threads.emplace_back([&, t] {
                server::HttpClient client(port);
                for (unsigned g = t; g < bench.grids;
                     g += submitters) {
                    submitted[g] = Clock::now();
                    server::HttpResponse response = client.post(
                        "/v1/grids", gridBody(bench, g, false));
                    if (response.status != 202) {
                        std::cerr << "serverbench: submit failed: "
                                  << response.body << "\n";
                        std::exit(1);
                    }
                    gridIds[g] = parseJson(response.body)
                                     .at("grid")
                                     .asString();
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    std::vector<double> latenciesMs(bench.grids);
    {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < bench.waiterThreads; ++t) {
            threads.emplace_back([&, t] {
                server::HttpClient client(port);
                for (unsigned g = t; g < bench.grids;
                     g += bench.waiterThreads) {
                    server::HttpResponse response = client.get(
                        "/v1/grids/" + gridIds[g] +
                        "/results?wait=1");
                    if (response.status != 200) {
                        std::cerr << "serverbench: results failed: "
                                  << response.body << "\n";
                        std::exit(1);
                    }
                    // Every cell must have materialized.
                    JsonValue doc = JsonValue::makeNull();
                    try {
                        doc = parseJson(response.body);
                    } catch (const std::exception &e) {
                        std::cerr << "serverbench: bad results body ("
                                  << e.what() << "): "
                                  << response.body.substr(0, 400)
                                  << "\n";
                        std::exit(1);
                    }
                    for (const JsonValue &cell :
                         doc.at("cells").asArray()) {
                        const JsonValue *status =
                            cell.find("status");
                        if (!status) {
                            std::cerr << "serverbench: cell without "
                                         "status; body head: "
                                      << response.body.substr(0, 600)
                                      << "\n";
                            std::exit(1);
                        }
                        if (status->asString() != "done") {
                            const JsonValue *why =
                                cell.find("error");
                            std::cerr << "serverbench: cell failed: "
                                      << (why ? why->asString()
                                              : status->asString())
                                      << "\n";
                            std::exit(1);
                        }
                    }
                    latenciesMs[g] =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - submitted[g])
                            .count();
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    const double stormSeconds = secondsSince(stormStart);
    const std::uint64_t uniqueSims = daemon.spawned();
    const std::uint64_t inflightPeak = daemon.inflightPeak();

    // --- Phase B: store replay ----------------------------------
    const Clock::time_point replayStart = Clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned t = 0; t < bench.waiterThreads; ++t) {
            threads.emplace_back([&, t] {
                server::HttpClient client(port);
                for (unsigned g = t; g < bench.grids;
                     g += bench.waiterThreads) {
                    server::HttpResponse response = client.post(
                        "/v1/grids", gridBody(bench, g, true));
                    if (response.status != 200) {
                        std::cerr << "serverbench: replay failed: "
                                  << response.body << "\n";
                        std::exit(1);
                    }
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    const double replaySeconds = secondsSince(replayStart);
    const std::uint64_t replaySims =
        daemon.spawned() - uniqueSims;

    const double dedupHitRate =
        1.0 - double(uniqueSims) / double(totalCells);
    const double sustainedQps = double(totalCells) / stormSeconds;
    const double replayQps = double(totalCells) / replaySeconds;
    const double p50 = percentile(latenciesMs, 0.50);
    const double p99 = percentile(latenciesMs, 0.99);

    std::ostringstream os;
    os << "{\n  \"schema\": \"BENCH_serverbench/v1\",\n"
       << "  \"quick\": " << (bench.quick ? "true" : "false")
       << ",\n  \"grids\": " << bench.grids
       << ",\n  \"cellsPerGrid\": " << bench.cellsPerGrid
       << ",\n  \"cellsSubmitted\": " << totalCells
       << ",\n  \"uniqueSims\": " << uniqueSims
       << ",\n  \"dedupHitRate\": " << dedupHitRate
       << ",\n  \"inflightPeak\": " << inflightPeak
       << ",\n  \"sustainedCellsPerSec\": " << sustainedQps
       << ",\n  \"p50Ms\": " << p50 << ",\n  \"p99Ms\": " << p99
       << ",\n  \"replaySims\": " << replaySims
       << ",\n  \"replayCellsPerSec\": " << replayQps << "\n}\n";

    if (bench.out == "-") {
        std::cout << os.str();
    } else {
        std::ofstream file(bench.out, std::ios::binary);
        file << os.str();
        std::cerr << "serverbench: wrote " << bench.out << "\n";
    }
    std::cerr << "serverbench: " << totalCells << " cells, "
              << uniqueSims << " simulations (dedup "
              << dedupHitRate * 100.0 << "%), peak " << inflightPeak
              << " in flight, p50 " << p50 << " ms, p99 " << p99
              << " ms\n";

    // --- Assertions ---------------------------------------------
    int failures = 0;
    if (uniqueSims > uniqueSpecs().size()) {
        std::cerr << "serverbench: FAIL single-flight: "
                  << uniqueSims << " simulations for "
                  << uniqueSpecs().size() << " unique specs\n";
        ++failures;
    }
    if (replaySims != 0) {
        std::cerr << "serverbench: FAIL replay: " << replaySims
                  << " new simulations (want 0, all from store)\n";
        ++failures;
    }
    if (bench.inflightFloor != 0 &&
        inflightPeak < bench.inflightFloor) {
        std::cerr << "serverbench: FAIL in-flight peak "
                  << inflightPeak << " < floor "
                  << bench.inflightFloor << "\n";
        ++failures;
    }
    return failures == 0 ? 0 : 1;
}

void
usage(std::ostream &os)
{
    os << "usage: serverbench [--quick] [--out FILE] [--workers N]\n"
          "--workers is 1..1024.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig bench;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            bench.quick = true;
            bench.grids = 6;
            bench.cellsPerGrid = 16;
            bench.waiterThreads = 4;
            bench.inflightFloor = 0; // too small to hold 1000
            bench.out = "-";
        } else if (arg == "--out" && i + 1 < argc) {
            bench.out = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            try {
                bench.workers = parseNumber<unsigned>(
                    arg, argv[++i], 1, runner::kMaxThreads);
            } catch (const std::invalid_argument &e) {
                std::cerr << "serverbench: " << e.what() << "\n";
                usage(std::cerr);
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "serverbench: unknown flag " << arg << "\n";
            return 2;
        }
    }
    try {
        return run(bench);
    } catch (const std::exception &e) {
        std::cerr << "serverbench: " << e.what() << "\n";
        return 1;
    }
}
