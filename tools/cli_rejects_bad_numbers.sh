#!/usr/bin/env bash
# Malformed numeric options must stop xpgraph_cli before it does any
# work: each case below has to exit 1 and name its option on stderr.
# The ctest entry `cli_rejects_bad_numbers` runs it as
#   tools/cli_rejects_bad_numbers.sh <xpgraph_cli>
set -uo pipefail

cli="$1"
failed=0
for case in "--sessions x7" "--stall-ms -1" "--stall-ms 5000000000" \
            "--seconds abc"; do
    read -r opt value <<< "${case}"
    err="$("${cli}" watch --seconds 0 --interval-ms 10 "${opt}" "${value}" \
           2>&1 >/dev/null)"
    status=$?
    if [[ ${status} -ne 1 || "${err}" != *"${opt}"* ]]; then
        echo "FAIL: watch ${case} exited ${status}: ${err}"
        failed=1
    fi
done
exit "${failed}"
