#!/usr/bin/env bash
# Malformed numeric options must stop xpgraph_cli with a usage error:
# each case below has to exit 1 and name its option on stderr. That
# includes --threads 0, on an XPGraph command (watch) and on a GraphOne
# one (query --system graphone-p, over a generated TT edge file).
# The ctest entry `cli_rejects_bad_numbers` runs it as
#   tools/cli_rejects_bad_numbers.sh <xpgraph_cli>
set -uo pipefail

cli="$1"
failed=0
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

# expect_rejected OPT CMD...: CMD exits 1 and names OPT on stderr.
expect_rejected() {
    local opt="$1"
    shift
    local err status
    err="$("$@" 2>&1 >/dev/null)"
    status=$?
    if [[ ${status} -ne 1 || "${err}" != *"${opt}"* ]]; then
        echo "FAIL: ${*:2} exited ${status}: ${err}"
        failed=1
    fi
}

for case in "--sessions x7" "--stall-ms -1" "--stall-ms 5000000000" \
            "--seconds abc" "--threads 0"; do
    read -r opt value <<< "${case}"
    expect_rejected "${opt}" "${cli}" watch --seconds 0 --interval-ms 10 \
        "${opt}" "${value}"
done
"${cli}" generate --dataset TT --out "${work}/tt.bin" > /dev/null
expect_rejected --threads "${cli}" query --algo bfs --system graphone-p \
    --threads 0 --in "${work}/tt.bin"
exit "${failed}"
