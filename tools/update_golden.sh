#!/bin/sh
# Regenerate the pinned golden-stats JSON under tests/golden/.
#
# Run this after an *intentional* behavioural change to the simulator,
# then review the diff: every changed field should be explainable by
# the change you just made. The files are produced by the ecdpsim
# command-line driver, which shares the exact JSON writer the
# golden-stats test uses.
#
# Usage: tools/update_golden.sh [build-dir]   (default: build)

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
ecdpsim="$build/tools/ecdpsim"
golden="$repo/tests/golden"

if [ ! -x "$ecdpsim" ]; then
    echo "error: $ecdpsim not built (cmake --build $build)" >&2
    exit 1
fi

mkdir -p "$golden"

# gen BENCH CONFIG [ENGINES]: one train-input run of a named config,
# optionally with its engine stack replaced (ecdpsim --engines). The
# file is named after the cell: '+', '-' and ',' become '_'.
gen() {
    bench=$1
    config=$2
    engines=${3:-}
    stem=$(printf '%s_%s' "$bench" "$config" | tr '+-' '__')
    set -- --bench "$bench" --config "$config" --input train --json
    if [ -n "$engines" ]; then
        stem="${stem}_$(printf '%s' "$engines" | tr ',+-' '___')"
        set -- "$@" --engines "$engines"
    fi
    echo "  $bench --config $config${engines:+ --engines $engines}" \
        "-> tests/golden/$stem.json"
    ECDP_TRACE= ECDP_RESULT_CACHE= "$ecdpsim" "$@" \
        > "$golden/$stem.json"
}

# Keep in step with kCases in tests/test_golden_stats.cc: every
# configs::knownNames() entry, each on a cell where its mechanism
# acts, plus a one-slot and a three-slot engine stack.
echo "regenerating golden stats:"
gen health baseline
gen mst cdp+throttle
gen bisort full
gen mst noprefetch
gen pfast cdp
gen bisort ecdp
gen mst dbp
gen bisort markov
gen health ghb
gen health ghb+ecdp
gen mst cdp+filter
gen bisort ecdp+fdp
gen bisort cdp+pab
gen xalancbmk grp
gen mst ideal-lds
gen omnetpp cdp+throttle stream
gen bisort cdp+throttle stream,cdp,isb
echo "done — review the diff before committing."
