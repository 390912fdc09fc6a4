/**
 * @file
 * The grid-cell wire format of ecdpd: one cell = one (workload,
 * configuration) simulation. Clients submit cells as JSON objects;
 * the daemon canonicalizes them (fixed key order, defaults omitted)
 * and content-addresses the result store by resultKey() over the
 * canonical form, so any two textually different but semantically
 * identical submissions share one store entry and one single-flight
 * simulation, and a kStatsSchema bump orphans every older spill.
 *
 * Execution is shared between the worker processes (`ecdpd
 * --worker`) and the in-process path the byte-identity tests diff
 * against: both call runCell()/cellStatsJson(), which route through
 * the same ExperimentContext machinery `repro` uses — so
 * daemon results are byte-identical to in-process results by
 * construction, and the integration test enforces it.
 */

#ifndef ECDP_SERVER_CELL_HH
#define ECDP_SERVER_CELL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace ecdp
{

class JsonValue;

namespace server
{

/** One grid cell. Optional knobs use the same sentinels as the
 *  ecdpsim flags they mirror (-1 / empty = keep the config's). */
struct CellSpec
{
    std::string bench;
    std::string config = "baseline";
    /** "ref" (default) or "train". */
    std::string input = "ref";
    std::vector<std::string> engines;
    std::string throttlePolicy;
    long rlSeed = -1;
    double tcov = -1.0;
    long interval = -1;
};

/**
 * Parse one cell object. Unknown members, wrong types, a missing
 * bench and anything validateCellSpec() rejects all throw with a
 * description — the daemon turns that into a 400, so a typoed field
 * can never silently select a default.
 */
CellSpec parseCellSpec(const JsonValue &v);

/**
 * The cell check ecdpd and ecdpsim share: throws std::runtime_error
 * on an unknown benchmark, config, engine or policy (the last three
 * list every known name), an input other than ref/train, or a knob
 * out of range (rlSeed < 0, tcov outside [0,1], interval <= 0; -1 is
 * "unset"). The bench is checked only when set: a multi-core cell has
 * none.
 */
void validateCellSpec(const CellSpec &spec);

/** Canonical JSON: fixed key order, defaulted members omitted. */
std::string canonicalCellJson(const CellSpec &spec);

/** Content address: resultKey() over the canonical JSON, so it
 *  folds kStatsSchema. */
std::uint64_t cellKey(const CellSpec &spec);

/** Human-readable config label, the one ecdpsim prints
 *  ("cdp+throttle[stream,cdp,isb]{tabular-rl}"). */
std::string cellLabel(const CellSpec &spec);

/** True when the cell's final stack (its engines, else its named
 *  config's) runs ECDP, i.e. it needs train-profiled compiler hints
 *  (configs::stackRunsEcdp()). */
bool cellNeedsHints(const CellSpec &spec);

/**
 * The SystemConfig the cell names: the named config with the cell's
 * overrides applied. @p hints (the train-profiled table, required
 * when cellNeedsHints()) is wired in exactly when the resulting
 * stack runs ECDP, whatever the named config.
 */
SystemConfig makeCellConfig(const CellSpec &spec,
                            const HintTable *hints);

/** The cell's run, memoized and traced by @p ctx like any bench
 *  run (the cell's bench and input; its label names the trace). */
const RunStats &runCell(const CellSpec &spec, ExperimentContext &ctx);

/**
 * Run @p mix, one benchmark per core, under the cell's configuration
 * and input through ExperimentContext::runMix (@p spec's bench is
 * ignored). A config that takes hints gets the members' merged
 * train-profiled tables.
 */
const MultiCoreResult &runMix(const CellSpec &spec,
                              const std::vector<std::string> &mix,
                              ExperimentContext &ctx);

/**
 * The canonical result bytes of a cell: writeRunStatsJson with the
 * cell's label — exactly what `ecdpsim --json` prints, minus the
 * trailing newline. These are the bytes the store holds and the
 * byte-identity contract is stated over.
 */
std::string cellStatsJson(const CellSpec &spec,
                          const RunStats &stats);

} // namespace server
} // namespace ecdp

#endif // ECDP_SERVER_CELL_HH
