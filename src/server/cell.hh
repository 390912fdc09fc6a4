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
 * the same ExperimentContext machinery the bench binaries use — so
 * daemon results are byte-identical to ExperimentRunner results by
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
 * Parse one cell object. Unknown members, wrong types and unknown
 * benchmark/config/input names all throw std::runtime_error with a
 * description — the daemon turns that into a 400, so a typoed field
 * can never silently select a default.
 */
CellSpec parseCellSpec(const JsonValue &v);

/** Canonical JSON: fixed key order, defaulted members omitted. */
std::string canonicalCellJson(const CellSpec &spec);

/** Content address: resultKey() over the canonical JSON, so it
 *  folds kStatsSchema. */
std::uint64_t cellKey(const CellSpec &spec);

/** Human-readable config label, the one ecdpsim prints
 *  ("cdp+throttle[stream,cdp,isb]{tabular-rl}"). */
std::string cellLabel(const CellSpec &spec);

/** True when the cell's named config or its engine stack runs ECDP,
 *  i.e. the config needs train-profiled compiler hints. */
bool cellNeedsHints(const CellSpec &spec);

/**
 * The SystemConfig the cell names: the named config with the cell's
 * overrides applied. @p hints (the train-profiled table, required
 * when cellNeedsHints()) is wired in whenever the resulting stack
 * runs ECDP, whatever the named config.
 */
SystemConfig makeCellConfig(const CellSpec &spec,
                            const HintTable *hints);

/** Simulate the cell (ref inputs memoized through @p ctx like any
 *  bench run; train inputs simulate directly). */
RunStats runCell(const CellSpec &spec, ExperimentContext &ctx);

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
