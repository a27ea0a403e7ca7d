#!/usr/bin/env bash
# `xpgraph_cli explain --json -` must print nothing but the JSON
# document on stdout when its graph comes from an --in edge file, as it
# does for --dataset: generate the TT edge file, explain one BFS over
# it and parse stdout as JSON. The ctest entry `cli_explain_json_stdout`
# runs it as
#   tools/cli_explain_json_stdout.sh <xpgraph_cli>
set -euo pipefail

cli="$1"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT
"${cli}" generate --dataset TT --out "${work}/tt.bin" > /dev/null
"${cli}" explain bfs --threads 1 --in "${work}/tt.bin" --json - \
    | python3 -m json.tool > /dev/null
