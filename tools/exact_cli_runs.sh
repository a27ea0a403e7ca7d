#!/usr/bin/env bash
# Single-thread CLI exactness runs: generate one dataset's edge file,
# then run xpgraph_cli with --threads 1 — ingest on xpgraph, xpgraph-b,
# graphone-p, graphone-d and graphone-n; the bfs/pr/cc/onehop kernels
# on the default system and on graphone-p; an ingest with
# --retain-window (deletes plus a compaction pass); a file-backed
# ingest followed by `recover --json -` on its image (the rebuild
# path); and ingest plus the four kernels on xpgraph-d and xpgraph-ssd
# (the DRAM and SSD device models). The `loaded ... from <path>` line loses its (temporary) path,
# so the output depends only on code and dataset.
#
#   tools/exact_cli_runs.sh <xpgraph_cli> <dataset>            print
#   tools/exact_cli_runs.sh <xpgraph_cli> <dataset> <golden>   diff
#
# With one thread every simulated number is a pure function of code and
# input: identical run to run, pinned or on all cores. The ctest entry
# `cli_exact_golden` diffs the TT runs against
# tools/exact_cli_golden.txt; a change that means to move a simulated
# number regenerates that file with
#   tools/exact_cli_runs.sh build/tools/xpgraph_cli TT \
#       > tools/exact_cli_golden.txt
# and says why.
set -euo pipefail

cli="$1"
dataset="$2"
golden="${3:-}"

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
edges="${work}/edges.bin"
"${cli}" generate --dataset "${dataset}" --out "${edges}" > /dev/null

runs() {
    for system in xpgraph xpgraph-b graphone-p graphone-d graphone-n; do
        "${cli}" ingest --in "${edges}" --threads 1 --system "${system}"
    done
    for algo in bfs pr cc onehop; do
        "${cli}" query --in "${edges}" --threads 1 --algo "${algo}"
        "${cli}" query --in "${edges}" --threads 1 \
            --system graphone-p --algo "${algo}"
    done
    "${cli}" ingest --in "${edges}" --threads 1 --retain-window 100000
    "${cli}" ingest --in "${edges}" --threads 1 --backing "${work}/image" \
        | tee "${work}/image.txt"
    # recover must see the ingest's geometry: its vertex and edge counts.
    local nv ne
    read -r ne nv < <(sed -nE \
        's/^loaded ([0-9]+) edges over ([0-9]+) vertices.*/\1 \2/p' \
        "${work}/image.txt")
    "${cli}" recover --backing "${work}/image" --vertices "${nv}" \
        --edges "${ne}" --threads 1 --json -
    for system in xpgraph-d xpgraph-ssd; do
        "${cli}" ingest --in "${edges}" --threads 1 --system "${system}"
        for algo in bfs pr cc onehop; do
            "${cli}" query --in "${edges}" --threads 1 \
                --system "${system}" --algo "${algo}"
        done
    done
}

runs | sed -E 's#^(loaded .*) from .*$#\1 from <edges>#' > "${work}/runs.txt"
if [[ -z "${golden}" ]]; then
    cat "${work}/runs.txt"
else
    diff -u "${golden}" "${work}/runs.txt"
fi
