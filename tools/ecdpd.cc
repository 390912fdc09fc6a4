/**
 * @file
 * ecdpd — the simulation daemon and, via --worker, its worker mode.
 *
 *   ecdpd [--port N] [--workers N] [--admission-limit N]
 *         [--client-limit N] [--store DIR]
 *   ecdpd --worker     # cell-spec JSON lines on stdin -> one reply
 *                      # frame each on fd 3 (the daemon starts this)
 *
 * The daemon prints exactly one line to stdout once it is serving:
 *
 *   ecdpd: listening on 127.0.0.1:<port>
 *
 * so scripts can bind port 0 and scrape the ephemeral port. Stop it
 * with SIGINT/SIGTERM or POST /v1/shutdown; either way every worker
 * process is reaped before the daemon exits.
 *
 * Crash isolation is why the worker is a separate *process*: a
 * simulation that segfaults kills only its worker, and the daemon
 * reports the cell as failed (with the signal and the stderr tail)
 * instead of dying. A worker is long-lived: it serves the cells of
 * one pool thread, one at a time, from one ExperimentContext that
 * keeps the workloads and hint tables it built, and it is replaced
 * after a failed cell or once its peak RSS passes a fixed bound
 * (src/server/process_util.hh).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "memsim/parse_number.hh"
#include "runner/thread_pool.hh"
#include "server/cell.hh"
#include "server/daemon.hh"
#include "server/process_util.hh"
#include "stats/json.hh"

namespace
{

using namespace ecdp;

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    gStop.store(true);
}

int
runWorker()
{
    ExperimentContext ctx;
    return server::serveWorkerRequests([&ctx](const std::string &line) {
        const server::CellSpec spec =
            server::parseCellSpec(parseJson(line));
        return server::cellStatsJson(spec, server::runCell(spec, ctx));
    });
}

void
usage(std::ostream &os)
{
    os << "usage: ecdpd [--port N] [--workers N] "
          "[--admission-limit N]\n"
          "             [--client-limit N] [--grid-cap N] "
          "[--store-cap N]\n"
          "             [--store DIR] [--disk-cap N]\n"
          "       ecdpd --worker\n"
          "--port is 0..65535 (0 = ephemeral), --workers 1..1024; "
          "limits and caps\n"
          "are whole numbers >= 0.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    server::DaemonOptions opts;
    opts.workers = std::max(2u, std::thread::hardware_concurrency() / 2);
    bool worker = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                throw std::runtime_error(std::string(flag) +
                                         " needs a value");
            }
            return argv[++i];
        };
        // Limits and caps: whole numbers >= 0, read in full.
        auto count = [&](const char *flag) {
            return parseNumber<std::size_t>(flag, value(flag));
        };
        try {
            if (arg == "--worker") {
                worker = true;
            } else if (arg == "--port") {
                opts.port = parseNumber<std::uint16_t>(
                    arg, value("--port"), 0, 65535);
            } else if (arg == "--workers") {
                opts.workers = parseNumber<unsigned>(
                    arg, value("--workers"), 1, runner::kMaxThreads);
            } else if (arg == "--admission-limit") {
                opts.admissionLimit = count("--admission-limit");
            } else if (arg == "--client-limit") {
                opts.perClientLimit = count("--client-limit");
            } else if (arg == "--grid-cap") {
                opts.completedGridCap = count("--grid-cap");
            } else if (arg == "--store-cap") {
                opts.storeMemoryCap = count("--store-cap");
            } else if (arg == "--disk-cap") {
                opts.storeDiskCap = count("--disk-cap");
            } else if (arg == "--store") {
                opts.storeDir = value("--store");
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cout);
                return 0;
            } else {
                throw std::runtime_error("unknown flag " + arg);
            }
        } catch (const std::exception &e) {
            std::cerr << "error: " << e.what() << '\n';
            usage(std::cerr);
            return 2;
        }
    }

    if (worker)
        return runWorker();

    opts.workerArgv = {server::selfExePath(argv[0]), "--worker"};
    try {
        server::Daemon daemon(opts);
        daemon.start();
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        std::cout << "ecdpd: listening on 127.0.0.1:" << daemon.port()
                  << std::endl;
        while (!gStop.load() && !daemon.shutdownRequested()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        daemon.stop();
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "ecdpd: " << e.what() << '\n';
        return 1;
    }
}
