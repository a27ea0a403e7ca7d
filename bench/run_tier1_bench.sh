#!/usr/bin/env bash
# Tier-1 benchmark driver: configures and builds the tree, runs the
# fig14 query bench (one-hop / BFS / PageRank / CC on GraphOne-P and
# XPGraph), the query-primitive, device-model, vertex-buffer-pool and
# session-append microbenchmarks (the host cost of one modeled PMEM
# store and load, alone and with 4 and 16 threads storing to one device;
# of one XPBuffer store and load; of one heat-table
# touch and one histogram record; of one pool
# alloc/free pair; of one free in a mass drain of parked buffers; of
# one 64-edge session write per engine; and of one compaction pass with
# nothing to rewrite), the concurrent-ingest
# scaling bench, and the
# recovery-depth bench, and leaves the machine-readable numbers in
# BENCH_query.json / BENCH_micro.json / BENCH_ingest.json /
# BENCH_recovery.json (override the paths with XPG_BENCH_JSON /
# XPG_BENCH_MICRO_JSON / XPG_BENCH_INGEST_JSON /
# XPG_BENCH_RECOVERY_JSON).
#
# Between build and benches the bounded crash-sweep stage runs: every
# test labeled "crash" (the systematic power-loss sweep over XPGraph and
# GraphOne, a few seconds wall time). Then the one-process test stage
# runs all of xpg_tests once in a single process in shuffled order and
# prints the seed (about 12 s).
#
# With XPG_TSAN=1 a second build tree (<build-dir>-tsan) is compiled
# with -DXPG_SANITIZE=thread and the concurrency test suites run under
# ThreadSanitizer before the benches.
#
# With XPG_ASAN=1 a third build tree (<build-dir>-asan) is compiled with
# -DXPG_SANITIZE=address,undefined and -fno-sanitize-recover=undefined
# (the first undefined-behaviour report aborts the run), and the
# recovery/crash suites (device crash model, allocator recovery, XPGraph
# recovery, crash sweep) run under AddressSanitizer and
# UndefinedBehaviorSanitizer — recovery code walks raw device images,
# exactly where an out-of-bounds read would hide — together with the
# read-view and pool suites (the vertex-buffer pool poisons the blocks
# on its free lists there, so a view reading a reclaimed buffer trips
# ASAN) and the edge-log and session suites, which cover the one append
# loop.
#
# After the recovery bench, the fig13 traffic bench runs and its report
# is gated twice with tools/bench_diff: the paper's write-amplification
# ordering (XPGraph strictly below GraphOne-P) must hold, and no metric
# may regress >10% against the committed BENCH_traffic.json baseline
# (including the compressed-chunk fields: compressed_bytes_per_edge and
# compression_ratio).
#
# The fig_serving smoke stage follows: the mixed-workload serving bench
# runs (its built-in acceptance check fails the stage if open ReadViews
# cost writers >10% ingest throughput), its BENCH_serving.json must
# parse, and the latency tails are gated (50% threshold — tail
# transients jitter with thread scheduling) against the committed
# baseline.
#
# The fig_churn stage runs the insert/delete mix bench (its built-in
# acceptance check fails if live-edge checksums differ with the
# background compactor on vs off, or if the compactor-on runs reclaim
# nothing), and gates BENCH_churn.json against the committed baseline
# at the same 50% jitter-tolerant threshold as serving.
#
# The compression equivalence gate then runs bfs/cc/onehop through the
# CLI with --compress 1 and --compress 0 and requires byte-identical
# result lines: the chunk format must be invisible to queries. A
# compactor equivalence gate repeats the comparison with --compact 1
# vs --compact 0: on a delete-free workload the compactor never touches
# a chain, so query results must again be byte-identical.
#
# The ops-plane stage (DESIGN.md §14) then validates the live operations
# artifacts: the serving bench's exporter series (JSONL) and Prometheus
# exposition must machine-parse, `xpgraph_cli watch` over a healthy
# churn store must exit 0 with parseable artifacts, and a deliberately
# wedged compactor run must be flagged `overall=stalled` (exit code 2)
# with a watchdog_stalled flight record on disk. The crash-sweep stage
# above also exports one fault-injector flight record
# (BENCH_flight_record.json) and parse-checks it.
#
# The closing telemetry stage (skip with XPG_TELEMETRY_STAGE=0) runs the
# CLI pipeline with --telemetry and json.tool-validates the trace and
# metrics files, checks the trace for the recovery event instant and
# the buffering spans' edge counts, runs the attribution profiler and
# asserts its per-cause rows sum back to the device counters exactly,
# then checks `xpgraph_cli explain bfs|cc` exactness. Telemetry is
# always compiled in; that it never changes a simulated number is
# checked by the Telemetry.RecordingNeverChargesSimClock and
# Telemetry.ReadersLeaveSimulatedResultsUnchanged tests, and the ctest
# entry cli_exact_golden pins every single-threaded CLI number.
#
# Usage: bench/run_tier1_bench.sh [build-dir] [dataset...]
#   build-dir  defaults to ./build
#   dataset    fig14/fig20 dataset abbreviations, default "TT"
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
shift $(( $# > 0 ? 1 : 0 ))
datasets=("${@:-TT}")

if [[ "${XPG_TSAN:-0}" == "1" ]]; then
    tsan_dir="${build_dir}-tsan"
    cmake -B "${tsan_dir}" -S "${repo_root}" -DXPG_SANITIZE=thread
    cmake --build "${tsan_dir}" -j "$(nproc)" --target xpg_tests
    "${tsan_dir}/tests/xpg_tests" \
        --gtest_filter='Sessions/*:ConcurrentIngest*:IngestSession*:ConcurrentRecovery*:Telemetry*:Attribution*:PmemDeviceTest.ConcurrentAccessesCountExactly:XPBuffer.*:SpinLock.*:ReadView*:Delete*:Compact*:Ops*:OpScope*:Explain*:VertexBufferPool.*:Generators.*:Datasets.*:Rng.*'
fi

if [[ "${XPG_ASAN:-0}" == "1" ]]; then
    asan_dir="${build_dir}-asan"
    cmake -B "${asan_dir}" -S "${repo_root}" \
          -DXPG_SANITIZE=address,undefined \
          -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined
    cmake --build "${asan_dir}" -j "$(nproc)" \
          --target xpg_tests xpg_crash_tests
    "${asan_dir}/tests/xpg_tests" \
        --gtest_filter='PmemDeviceTest.*:PmemAllocator.*:RecoveryTest.*:XPBuffer.*:CompressedStoreFixture.*:AdjacencyCodec.*:ReadView.*:Delete*:Compact*:Ops*:OpScope*:Explain*:VertexBufferPool.*:CircularEdgeLog.*:IngestSession*:Generators.*:Datasets.*:Rng.*'
    "${asan_dir}/tests/xpg_crash_tests"
fi

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j "$(nproc)" \
      --target fig14_query micro_primitives fig20_ingest fig_recovery \
               fig13_pmem_traffic fig_serving fig_churn xpg_crash_tests \
               xpg_tests

# Bounded crash-sweep stage: systematic power-loss points with recovery
# validation (tests/test_crash_sweep.cpp). The torn-write sweep exports
# one fault-injector flight record, parse-checked below: the postmortem
# a crash leaves behind must be machine-readable, not just present.
export XPG_FLIGHT_RECORD_OUT="${XPG_FLIGHT_RECORD_OUT:-${repo_root}/BENCH_flight_record.json}"
ctest --test-dir "${build_dir}" -L crash --output-on-failure
python3 - "${XPG_FLIGHT_RECORD_OUT}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "xpgraph-flight-v1", doc["schema"]
assert doc["reason"] == "fault_injector_crash", doc["reason"]
for key in ("in_flight_phase", "event_tail", "trace_tail"):
    assert key in doc, f"flight record missing {key}"
print(f"crash flight record parses: in-flight phase "
      f"{doc['in_flight_phase']!r}, {len(doc['event_tail'])} events, "
      f"{len(doc['trace_tail'])} spans")
EOF

# One-process test stage: ctest runs every test in its own process, so
# only the whole suite in one process catches a test that depends on
# what an earlier test left on its thread (a NUMA binding, a simulated
# clock, an attribution tag). The order is shuffled; replay a failing
# one with the printed seed.
shuffle_seed=$(( RANDOM % 99999 + 1 ))
echo "one-process test stage: xpg_tests --gtest_shuffle" \
     "--gtest_random_seed=${shuffle_seed}"
"${build_dir}/tests/xpg_tests" --gtest_shuffle \
    --gtest_random_seed="${shuffle_seed}" --gtest_brief=1

export XPG_BENCH_JSON="${XPG_BENCH_JSON:-${repo_root}/BENCH_query.json}"
"${build_dir}/bench/fig14_query" "${datasets[@]}"

# Query regression gate: when a baseline BENCH_query.json is committed,
# no (dataset, store, algorithm) metric — kernel times, media traffic,
# or the round-level shape columns (rounds / frontier_peak /
# edges_scanned) — may regress more than 10% beyond its noise floor,
# and none may vanish from the report.
if baseline_query="$(git -C "${repo_root}" show HEAD:BENCH_query.json \
                         2>/dev/null)"; then
    "${repo_root}/tools/bench_diff" \
        <(printf '%s' "${baseline_query}") "${XPG_BENCH_JSON}"

    # Negative self-check of the gate: the committed baseline with one
    # metric dropped must fail it (exit 1), not compare one metric less.
    dropped_json="$(mktemp --suffix=.json)"
    printf '%s' "${baseline_query}" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
row = doc["rows"][0]
del row[next(k for k in row if k.endswith("_ns"))]
json.dump(doc, open(sys.argv[1], "w"))' "${dropped_json}"
    set +e
    "${repo_root}/tools/bench_diff" \
        <(printf '%s' "${baseline_query}") "${dropped_json}" > /dev/null
    dropped_rc=$?
    set -e
    rm -f "${dropped_json}"
    if [[ "${dropped_rc}" != "1" ]]; then
        echo "FAIL: bench_diff exited ${dropped_rc} on a report with a" \
             "dropped metric, expected 1"
        exit 1
    fi
    echo "bench_diff self-check passed: a dropped metric fails the gate"
else
    echo "bench_diff: no committed BENCH_query.json baseline; skipping"
fi

# Micro stage: five repetitions of each primitive; BENCH_micro.json keeps
# their median aggregates. The device model's rows (random write and
# read, sequential write, XPBuffer store and loads, heat-table touches)
# are gated against the committed baseline at 25%, above the worst of
# ten runs of an unchanged tree against it on the 4-core host (+19%):
# they are host time, so a different host needs a new baseline. The
# random-access rows time a device image whose pages were all touched
# before the timed loop. Ungated: the shared scatter at 4 and 16
# threads (the 16-thread row is the paper benches' oversubscription of
# a 4-core host), and BM_PmemImageFirstTouch, which keeps the
# first-touch cost of a fresh image visible.
export XPG_BENCH_MICRO_JSON="${XPG_BENCH_MICRO_JSON:-${repo_root}/BENCH_micro.json}"
"${build_dir}/bench/micro_primitives" \
    --benchmark_filter='BM_(GetNebrs|Degree|LogWindow|AdjCodec|AdjRawCopy|TombstoneFold|Pmem|XPBuffer|LineHeat|Histogram|Pool|SessionAppend|Compaction).*' \
    --benchmark_min_time=0.05 --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out="${XPG_BENCH_MICRO_JSON}" --benchmark_out_format=json
if baseline_micro="$(git -C "${repo_root}" show HEAD:BENCH_micro.json \
                         2>/dev/null)"; then
    "${repo_root}/tools/bench_diff" \
        <(printf '%s' "${baseline_micro}") "${XPG_BENCH_MICRO_JSON}" \
        --rows 'benchmark=BM_(PmemDevice(RandomWrite|RandomRead|Sequential)|XPBuffer|LineHeat)' \
        --threshold 25
else
    echo "bench_diff: no committed BENCH_micro.json baseline; skipping"
fi

export XPG_BENCH_INGEST_JSON="${XPG_BENCH_INGEST_JSON:-${repo_root}/BENCH_ingest.json}"
"${build_dir}/bench/fig20_ingest" "${datasets[0]}"

export XPG_BENCH_RECOVERY_JSON="${XPG_BENCH_RECOVERY_JSON:-${repo_root}/BENCH_recovery.json}"
"${build_dir}/bench/fig_recovery" "${datasets[0]}"

export XPG_BENCH_TRAFFIC_JSON="${XPG_BENCH_TRAFFIC_JSON:-${repo_root}/BENCH_traffic.json}"
"${build_dir}/bench/fig13_pmem_traffic" "${datasets[@]}"

# Traffic regression gate: the paper's headline ordering (XPGraph's
# write amplification strictly below GraphOne-P's) must hold in the run
# just produced, and — when a baseline BENCH_traffic.json is committed —
# no (dataset, system) metric may have regressed more than 10% against
# it.
"${repo_root}/tools/bench_diff" "${XPG_BENCH_TRAFFIC_JSON}" \
    --assert-write-amp-order
if baseline_traffic="$(git -C "${repo_root}" show HEAD:BENCH_traffic.json \
                           2>/dev/null)"; then
    "${repo_root}/tools/bench_diff" \
        <(printf '%s' "${baseline_traffic}") "${XPG_BENCH_TRAFFIC_JSON}"
else
    echo "bench_diff: no committed BENCH_traffic.json baseline; skipping"
fi

# Serving smoke stage: the mixed-workload bench exits non-zero on its
# own acceptance check (ingest throughput with 95% readers must stay
# within 10% of the no-reader baseline), the report must parse, and —
# when a baseline BENCH_serving.json is committed — the latency tails
# must not blow up against it. The serving loop's archive-phase stall
# transients land differently run to run (thread scheduling), so this
# gate uses a 50% threshold: it catches a real tail regression (2x),
# not scheduling jitter.
export XPG_BENCH_SERVING_JSON="${XPG_BENCH_SERVING_JSON:-${repo_root}/BENCH_serving.json}"
export XPG_BENCH_SERVING_OPS_JSONL="${XPG_BENCH_SERVING_OPS_JSONL:-${repo_root}/BENCH_serving_ops.jsonl}"
export XPG_BENCH_SERVING_OPS_PROM="${XPG_BENCH_SERVING_OPS_PROM:-${repo_root}/BENCH_serving_ops.prom}"
"${build_dir}/bench/fig_serving" "${datasets[0]}"
python3 -m json.tool "${XPG_BENCH_SERVING_JSON}" > /dev/null
if baseline_serving="$(git -C "${repo_root}" show HEAD:BENCH_serving.json \
                           2>/dev/null)"; then
    "${repo_root}/tools/bench_diff" --threshold 50 \
        <(printf '%s' "${baseline_serving}") "${XPG_BENCH_SERVING_JSON}"
else
    echo "bench_diff: no committed BENCH_serving.json baseline; skipping"
fi

# Churn stage: the insert/delete mix bench exits non-zero on its own
# acceptance check (live-edge checksums must be identical with the
# background compactor on and off, and the compactor-on runs must have
# actually reclaimed chains), the report must parse, and — when a
# baseline BENCH_churn.json is committed — throughput and write-latency
# tails are gated. The background compactor thread's pass timing is
# scheduling-dependent, so like the serving gate this uses a 50%
# threshold: a real regression (2x), not jitter.
export XPG_BENCH_CHURN_JSON="${XPG_BENCH_CHURN_JSON:-${repo_root}/BENCH_churn.json}"
"${build_dir}/bench/fig_churn" "${datasets[0]}"
python3 -m json.tool "${XPG_BENCH_CHURN_JSON}" > /dev/null
if baseline_churn="$(git -C "${repo_root}" show HEAD:BENCH_churn.json \
                         2>/dev/null)"; then
    "${repo_root}/tools/bench_diff" --threshold 50 \
        <(printf '%s' "${baseline_churn}") "${XPG_BENCH_CHURN_JSON}"
else
    echo "bench_diff: no committed BENCH_churn.json baseline; skipping"
fi

# Query-equivalence gates: a storage-layer option must not change any
# order-insensitive query result, so bfs, cc and onehop run on one
# generated edge file with the option at 1 and at 0 and their result
# lines must be identical (PageRank is excluded for the same
# float-order sensitivity fig14 documents). CC's rounds-to-converge is
# normalized away: label propagation can converge in a different
# number of rounds under a different (equally legal) visit order — the
# component count itself must still match exactly.
#   query_equivalence_gate OPTION NAME  (NAME labels the pass line)
query_equivalence_gate() {
    local option="$1" name="$2" algo value
    local -a logs=("$(mktemp)" "$(mktemp)") # indexed by option value
    for algo in bfs cc onehop; do
        for value in 1 0; do
            "${build_dir}/tools/xpgraph_cli" query --in "${equiv_edges}" \
                --algo "${algo}" "--${option}" "${value}" \
                | grep -E '^(BFS|CC:|one-hop)' \
                | sed -E 's/ in [0-9]+ rounds//' >> "${logs[value]}"
        done
    done
    [[ -s "${logs[1]}" ]] || { echo "FAIL: no query result lines captured"; exit 1; }
    if ! diff "${logs[1]}" "${logs[0]}"; then
        echo "FAIL: query results differ between --${option} 1 and 0"
        exit 1
    fi
    echo "${name} equivalence check passed (bfs/cc/onehop identical)"
    rm -f "${logs[@]}"
}
cmake --build "${build_dir}" -j "$(nproc)" --target xpgraph_cli
equiv_edges="$(mktemp --suffix=.bin)"
"${build_dir}/tools/xpgraph_cli" generate --dataset "${datasets[0]}" \
    --out "${equiv_edges}"
# Compression: the delta+varint chunk format is a storage-layer change
# only (compressed chunks store neighbor runs sorted, hence the CC
# round normalization).
query_equivalence_gate compress compression
# Compactor: on a delete-free workload the background compactor must be
# a strict no-op — it only ever rewrites chains that carry tombstones.
query_equivalence_gate compact compactor
rm -f "${equiv_edges}"

# Ops-plane stage (DESIGN.md §14). Three checks:
#  1. The serving bench's exporter artifacts — the JSONL sample series
#     and the Prometheus text exposition — must machine-parse.
#  2. `xpgraph_cli watch` over a healthy churn store exits 0 and its
#     own artifacts (sample series, exposition, event log) parse.
#  3. A deliberately wedged compactor (--wedge-compactor 1) must be
#     flagged within the stall deadline: watch exits 2, reports
#     `overall=stalled`, and the watchdog's Stalled transition leaves a
#     parseable flight record behind.
python3 - "${XPG_BENCH_SERVING_OPS_JSONL}" "${XPG_BENCH_SERVING_OPS_PROM}" <<'EOF'
import json, sys
jsonl_path, prom_path = sys.argv[1], sys.argv[2]
samples = 0
for line in open(jsonl_path):
    line = line.strip()
    if not line:
        continue
    doc = json.loads(line)
    assert doc["schema"] == "xpgraph-ops-sample-v1", doc["schema"]
    assert "telemetry" in doc, "sample missing the telemetry snapshot"
    samples += 1
assert samples > 0, "exporter series is empty"
series = 0
for line in open(prom_path):
    if line.startswith("# TYPE "):
        series += 1
        continue
    if not line.strip():
        continue
    name, _, value = line.rstrip("\n").rpartition(" ")
    assert name.startswith("xpg_"), f"unprefixed series line: {line!r}"
    int(value)  # every sample value is an integer
assert series > 0, "no TYPE lines in the exposition"
print(f"ops exporter artifacts parse: {samples} samples, "
      f"{series} exposition series")
EOF

watch_dir="$(mktemp -d)"
"${build_dir}/tools/xpgraph_cli" watch --seconds 2 --interval-ms 200 \
    --ops-jsonl "${watch_dir}/ops.jsonl" \
    --prom "${watch_dir}/metrics.prom" \
    --events "${watch_dir}/events.jsonl" | tee "${watch_dir}/watch.log"
grep -q "overall=ok" "${watch_dir}/watch.log" \
    || { echo "FAIL: healthy watch never reported overall=ok"; exit 1; }
python3 - "${watch_dir}/ops.jsonl" "${watch_dir}/events.jsonl" <<'EOF'
import json, sys
samples = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert samples and all(s["schema"] == "xpgraph-ops-sample-v1"
                       for s in samples)
events = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert events, "watch run emitted no structured events"
for ev in events:
    for key in ("seq", "level", "category", "name", "host_ns"):
        assert key in ev, f"event missing {key}: {ev}"
print(f"watch artifacts parse: {len(samples)} samples, "
      f"{len(events)} events")
EOF

# Wedged-compactor scenario: health must reach Stalled inside the run.
wedge_log="${watch_dir}/wedge.log"
set +e
"${build_dir}/tools/xpgraph_cli" watch --seconds 2 --interval-ms 100 \
    --stall-ms 500 --wedge-compactor 1 --flight-dir "${watch_dir}" \
    > "${wedge_log}" 2>&1
wedge_rc=$?
set -e
if [[ "${wedge_rc}" != "2" ]]; then
    cat "${wedge_log}"
    echo "FAIL: wedged-compactor watch exited ${wedge_rc}, expected 2"
    exit 1
fi
grep -q "overall=stalled" "${wedge_log}" \
    || { cat "${wedge_log}"; \
         echo "FAIL: wedged compactor never reported overall=stalled"; \
         exit 1; }
python3 - "${watch_dir}/flight_record.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "xpgraph-flight-v1", doc["schema"]
assert doc["reason"] == "watchdog_stalled", doc["reason"]
assert doc["health"]["overall"] == "stalled", doc["health"]
print("wedge scenario passed: watchdog flagged the stall and dumped "
      "a parseable flight record")
EOF
rm -rf "${watch_dir}"

# Telemetry stage (skip with XPG_TELEMETRY_STAGE=0). Three checks:
#  1. The CLI pipeline run (ingest + archive + query + crash + recover)
#     with --telemetry produces a Chrome trace and a metrics snapshot
#     that real JSON parsers accept; the trace holds the recovery
#     event instant and edge counts on its buffering_phase spans.
#  2. The attribution profiler's per-cause rows sum to the device
#     counters.
#  3. `xpgraph_cli explain` rounds and attribution rows sum to the
#     op's deltas.
if [[ "${XPG_TELEMETRY_STAGE:-1}" == "1" ]]; then
    cmake --build "${build_dir}" -j "$(nproc)" --target xpgraph_cli
    trace_json="${XPG_BENCH_TRACE_JSON:-${repo_root}/BENCH_trace.json}"
    "${build_dir}/tools/xpgraph_cli" pipeline --dataset "${datasets[0]}" \
        --sessions 4 --telemetry "${trace_json}"
    python3 -m json.tool "${trace_json}" > /dev/null
    python3 -m json.tool "${trace_json%.json}.metrics.json" > /dev/null
    echo "telemetry: ${trace_json} and ${trace_json%.json}.metrics.json parse"
    # Events on the timeline: the pipeline recovers with a report, so
    # its trace holds a recovery instant, and every buffering_phase
    # span carries the edges it buffered as its a0 argument.
    python3 - "${trace_json}" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
recovery = [e for e in events
            if e.get("ph") == "i" and e.get("cat") == "recovery"]
assert recovery, "pipeline trace holds no recovery instant"
for e in recovery:
    assert e["name"] in ("recovery_clean", "recovery_repairs"), e
buffering = [e for e in events
             if e.get("ph") == "X" and e.get("name") == "buffering_phase"]
assert buffering, "pipeline trace holds no buffering_phase span"
for e in buffering:
    assert e["args"].get("a0", 0) > 0, f"no edge count on {e}"
print(f"telemetry: {len(recovery)} recovery instant(s), "
      f"{len(buffering)} buffering_phase spans with edge counts")
EOF

    # Attribution profile stage: the profiler's per-cause rows must sum
    # back to the device-wide PCM counters exactly, on every integer
    # field (both sides are the same integer counters, read with no
    # traffic between them; the amplification ratios are derived).
    profile_json="${XPG_BENCH_PROFILE_JSON:-${repo_root}/BENCH_profile.json}"
    "${build_dir}/tools/xpgraph_cli" profile --dataset "${datasets[0]}" \
        --json "${profile_json}"
    python3 -m json.tool "${profile_json}" > /dev/null
    python3 - "${profile_json}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
dev = doc["counters"]
tot = doc["attribution_total"]
rows = doc["attribution"]
fields = [k for k, v in dev.items() if isinstance(v, int)]
bad = []
for key in fields:
    summed = sum(row.get(key, 0) for row in rows.values())
    if summed != dev[key] or tot.get(key) != dev[key]:
        bad.append(f"{key}: rows sum to {summed}, total {tot.get(key)}, "
                   f"device {dev[key]}")
if bad:
    sys.exit("FAIL: attribution does not sum to the device counters:\n  "
             + "\n  ".join(bad))
print(f"profile check passed: {len(rows)} attribution rows sum to the "
      f"device counters exactly on {len(fields)} fields")
EOF

    # Explain stage (DESIGN.md §15): `xpgraph_cli explain` on bfs and
    # cc must produce a parseable xpgraph-explain-v1 report whose
    # round-level media reads sum to the op's OpScope counter delta
    # EXACTLY (continuous probe coverage on a quiesced store), whose
    # per-op attribution rows equal the global AttributionTable delta's
    # row by row and field by field, and whose op sim_ns is the
    # kernel's. The CLI itself exits non-zero when its own checks fail;
    # the python pass re-derives the invariants from the raw rows
    # rather than trusting the embedded verdicts.
    for kernel in bfs cc; do
        explain_json="${repo_root}/BENCH_explain_${kernel}.json"
        "${build_dir}/tools/xpgraph_cli" explain "${kernel}" \
            --dataset "${datasets[0]}" --json "${explain_json}"
        python3 -m json.tool "${explain_json}" > /dev/null
        python3 - "${explain_json}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "xpgraph-explain-v1", doc["schema"]
checks = doc["checks"]
assert checks["probe_active"], "store reported no query probe"
op_ops = doc["op"]["pcm"]["media_read_ops"]
round_ops = sum(r["media_read_ops"] for r in doc["rounds"])
assert round_ops == op_ops, (
    f"round media reads {round_ops} != op delta {op_ops}")
assert doc["op"]["sim_ns"] == doc["result"]["sim_ns"], (
    f"op sim_ns {doc['op']['sim_ns']} != kernel sim_ns "
    f"{doc['result']['sim_ns']}")
op_rows = doc["op"]["attribution"]
glob_rows = doc["global_delta"]["attribution"]
assert op_rows.keys() == glob_rows.keys(), (
    f"op rows {sorted(op_rows)} vs global rows {sorted(glob_rows)}")
for cause, op_row in op_rows.items():
    for field, gl_v in glob_rows[cause].items():
        if isinstance(gl_v, int):
            assert op_row[field] == gl_v, (
                f"{cause}.{field}: op row {op_row[field]} vs global "
                f"delta {gl_v}")
assert checks["round_media_reads_exact"] and checks["attribution_ok"]
print(f"explain {doc['algo']}: {len(doc['rounds'])} rounds, "
      f"{round_ops} media reads sum exactly; {len(op_rows)} attribution "
      f"rows equal the global delta's")
EOF
    done
fi

echo
echo "wrote ${XPG_BENCH_JSON}, ${XPG_BENCH_INGEST_JSON} and ${XPG_BENCH_RECOVERY_JSON}"
