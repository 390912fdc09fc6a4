/**
 * @file
 * Named test cells: a (benchmark, configuration name) pair run on the
 * train input. Configurations come from configs::byName — the table
 * ecdpsim --config and ecdpd use — so a matrix test runs exactly the
 * machine the command line names. Two test-only variants extend that
 * table:
 *  - "side-buffer": cdp with the Section 2.3 no-pollution side
 *    buffer, which exercises the side_resident / side_used legs of
 *    the fill identity;
 *  - "small-blocks": baseline with 64 B L1/L2 blocks.
 */

#ifndef ECDP_TESTS_NAMED_CELLS_HH
#define ECDP_TESTS_NAMED_CELLS_HH

#include <map>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "compiler/profiling_compiler.hh"
#include "sim/experiment.hh"
#include "workloads/workload.hh"

namespace ecdp
{
namespace cells
{

/** One (benchmark, configuration name) cell. */
struct NamedCell
{
    const char *bench;
    const char *config;
};

/** Prints "bench:config", so ctest IDs carry no pointer bytes. */
inline void
PrintTo(const NamedCell &c, std::ostream *os)
{
    *os << c.bench << ":" << c.config;
}

/** "<bench>_<config>" with '+' and '-' spelled '_'. */
inline std::string
testName(const std::string &bench, const std::string &config)
{
    std::string name = bench + "_" + config;
    for (char &ch : name) {
        if (ch == '+' || ch == '-')
            ch = '_';
    }
    return name;
}

/** gtest name generator for NamedCell suites. */
inline std::string
cellTestName(const ::testing::TestParamInfo<NamedCell> &info)
{
    return testName(info.param.bench, info.param.config);
}

/** Train-input hint table of @p bench, profiled once per process. */
inline const HintTable &
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

/** The configuration named @p config, with @p bench's train hints
 *  when the name needs them. */
inline SystemConfig
cellConfig(const std::string &config, const std::string &bench)
{
    if (config == "side-buffer") {
        SystemConfig cfg = configs::byName("cdp");
        cfg.idealNoPollution = true;
        return cfg;
    }
    if (config == "small-blocks") {
        SystemConfig cfg = configs::byName("baseline");
        cfg.l1BlockBytes = 64;
        cfg.l2BlockBytes = 64;
        return cfg;
    }
    return configs::byName(config, configs::nameNeedsHints(config)
                                       ? &trainHints(bench)
                                       : nullptr);
}

inline SystemConfig
cellConfig(const NamedCell &c)
{
    return cellConfig(c.config, c.bench);
}

} // namespace cells
} // namespace ecdp

#endif // ECDP_TESTS_NAMED_CELLS_HH
