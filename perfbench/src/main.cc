/**
 * @file
 * perfbench — the repository benchmark's harness binary. run.py builds
 * it and calls one mode per process:
 *
 *   perfbench grid      --seed N --seconds S --trace 0|1 --reference F
 *   perfbench serial    --seed N --seconds S --trace 0|1 --reference F
 *   perfbench warm      --port P --seed N
 *   perfbench sweep     --port P --seed N --seconds S --trace 0|1
 *   perfbench reference --reference F     (rewrites the reference file)
 *
 * The workload modes print an environment line and then, as the last
 * line of standard output, the result object run.py forwards.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench.hh"

namespace
{

int
usage()
{
    std::cerr << "usage: perfbench grid|serial|warm|sweep|reference "
                 "[--seed N] [--seconds S] [--trace 0|1] [--port P] "
                 "[--reference FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    // Assertions on: a Debug build measures a different program.
    std::cerr << "perfbench: refusing to measure a build without "
                 "NDEBUG ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 2;
#endif
    if (std::getenv("ECDP_RESULT_CACHE") || std::getenv("ECDP_TRACE")) {
        std::cerr << "perfbench: unset ECDP_RESULT_CACHE and ECDP_TRACE "
                     "first: they replace simulations with cache loads "
                     "or add tracing\n";
        return 2;
    }
    if (argc < 2)
        return usage();
    perfbench::Options opts;
    opts.mode = argv[1];
    try {
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc)
                return usage();
            const std::string value = argv[++i];
            if (arg == "--seed")
                opts.seed = std::stoull(value);
            else if (arg == "--seconds")
                opts.seconds = std::stod(value);
            else if (arg == "--trace")
                opts.trace = value == "1";
            else if (arg == "--port")
                opts.port = static_cast<unsigned>(std::stoul(value));
            else if (arg == "--reference")
                opts.reference = value;
            else
                return usage();
        }

        if (opts.mode == "reference")
            return perfbench::writeReference(opts);
        if (opts.mode == "warm")
            return perfbench::runSweepWarm(opts);

        std::cout << "perfbench env: " << perfbench::environmentLine()
                  << std::endl;
        perfbench::Result result;
        int status = 0;
        if (opts.mode == "grid")
            status = perfbench::runFig07Grid(opts, result);
        else if (opts.mode == "serial")
            status = perfbench::runFilteredSerial(opts, result);
        else if (opts.mode == "sweep")
            status = perfbench::runSweep(opts, result);
        else
            return usage();
        if (status != 0)
            return status;
        result.print();
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
