#!/usr/bin/env bash
# Full local verification: configure, build (warnings as errors), test,
# and run every bench binary.  This is the command sequence EXPERIMENTS.md
# numbers are regenerated with.
#
# The full suite runs in the one build configuration, then boots a live
# netpartd and drives it with netpartc (server_smoke below).  A second,
# ThreadSanitizer-instrumented build then runs the parallel-runtime,
# observability, server, and repartitioning tests at several lane counts to
# race-check the pool.
#
# Usage: check.sh [--fast]
#   --fast  Tier-1 loop only: tests not labeled "slow" (ctest -LE slow), no
#           smokes, no TSan, no benches.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [ "${1:-}" = "--fast" ]; then
  FAST=1
fi

# End-to-end smoke of the partition server: boot netpartd on an abstract
# socket, drive a load/partition/cache-hit/metrics/stats sequence with
# netpartc, check the `stats` telemetry (rolling percentiles, Prometheus
# body, access log), the trace-context echo, the per-stage decomposition,
# the flight recorder and the Chrome-trace request overlay, and shut it
# down cleanly.
server_smoke() {
  local bindir="$1"
  local sock="@netpart-check-$$-${bindir//\//-}"
  local access_log="$bindir/access-smoke.ndjson"
  rm -f "$access_log"
  "$bindir/tools/netpartd" --socket "$sock" --access-log "$access_log" &
  local pid=$!
  trap 'kill "$pid" 2>/dev/null || true' RETURN
  local i
  for i in $(seq 1 50); do
    if "$bindir/tools/netpartc" --socket "$sock" ping >/dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  "$bindir/tools/netpartc" --socket "$sock" load smoke bm1
  "$bindir/tools/netpartc" --socket "$sock" partition smoke
  "$bindir/tools/netpartc" --socket "$sock" unload smoke
  "$bindir/tools/netpartc" --socket "$sock" load smoke2 bm1
  "$bindir/tools/netpartc" --socket "$sock" partition smoke2
  "$bindir/tools/netpartc" --socket "$sock" metrics
  "$bindir/tools/netpartc" --socket "$sock" stats
  # Capture to a file rather than piping into grep -q: an early grep exit
  # would SIGPIPE the client mid-body and trip pipefail.
  "$bindir/tools/netpartc" --socket "$sock" stats --prom \
    > "$bindir/stats-smoke.prom"
  grep -q '^# TYPE netpartd_request_latency_ms summary' \
    "$bindir/stats-smoke.prom"
  # Sampling profiler round trip: start, run a compute request with the
  # convergence-event splice, dump the folded stacks, stop.
  "$bindir/tools/netpartc" --socket "$sock" profile start
  "$bindir/tools/netpartc" --socket "$sock" raw \
    '{"id":9,"op":"load","session":"smoke3","circuit":"bm1"}'
  "$bindir/tools/netpartc" --socket "$sock" raw \
    '{"id":10,"op":"partition","session":"smoke3","use_cache":false,"events":true}' \
    > "$bindir/events-smoke.json"
  grep -q '"events"' "$bindir/events-smoke.json"
  "$bindir/tools/netpartc" --socket "$sock" profile dump \
    > "$bindir/profile-smoke.folded"
  "$bindir/tools/netpartc" --socket "$sock" profile stop
  python3 scripts/validate_folded.py "$bindir/profile-smoke.folded" \
    --min-samples 0
  # Trace context round trip: a known trace_id must come back in the
  # response envelope together with the caller's span as parent_span_id and
  # the per-stage decomposition.
  local tid="00112233445566778899aabbccddeeff"
  "$bindir/tools/netpartc" --socket "$sock" raw \
    "{\"id\":11,\"op\":\"partition\",\"session\":\"smoke3\",\"trace_id\":\"$tid\",\"span_id\":\"0123456789abcdef\"}" \
    > "$bindir/traced-smoke.json"
  grep -q "\"trace_id\":\"$tid\"" "$bindir/traced-smoke.json"
  grep -q '"parent_span_id":"0123456789abcdef"' "$bindir/traced-smoke.json"
  grep -q '"stages_us"' "$bindir/traced-smoke.json"
  # netpartc mints its own trace context and --timing prints the breakdown.
  "$bindir/tools/netpartc" --socket "$sock" --timing partition smoke3 \
    > /dev/null 2> "$bindir/timing-smoke.txt"
  grep -q 'trace_id=[0-9a-f]\{32\}' "$bindir/timing-smoke.txt"
  grep -q 'execute=' "$bindir/timing-smoke.txt"
  # Flight recorder drain via the debug op: the traced request above must be
  # in the ring, stamped with its trace_id and a terminal outcome.
  "$bindir/tools/netpartc" --socket "$sock" debug flightrec \
    > "$bindir/flightrec-smoke.json"
  python3 - "$bindir/flightrec-smoke.json" "$tid" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] and doc["enabled"], doc
recs = doc["records"]
assert recs, "flight recorder drained no records"
mine = [r for r in recs if r.get("trace_id") == sys.argv[2]]
assert mine, f"trace_id {sys.argv[2]} not in flight recorder"
assert any(r["outcome"] == "ok" for r in mine), mine
print(f"flight recorder ok ({len(recs)} records, {len(doc['notes'])} notes)")
EOF
  # Chrome trace with the request-stage overlay: every request span must
  # carry the caller's trace_id.
  "$bindir/tools/netpartc" --socket "$sock" raw \
    "{\"id\":12,\"op\":\"partition\",\"session\":\"smoke3\",\"use_cache\":false,\"trace\":true,\"trace_format\":\"chrome\",\"trace_id\":\"$tid\",\"span_id\":\"0123456789abcdef\"}" \
    > "$bindir/chrome-smoke.json"
  python3 - "$bindir/chrome-smoke.json" "$bindir/chrome-smoke.trace" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"], doc
json.dump(doc["trace"], open(sys.argv[2], "w"))
EOF
  python3 scripts/validate_trace.py "$bindir/chrome-smoke.trace" \
    --min-events 1 --require-trace-id
  "$bindir/tools/netpartc" --socket "$sock" shutdown
  wait "$pid"
  # Every executed request must have produced one parseable NDJSON line,
  # now carrying the trace/lane/stage fields (appended, nothing renamed).
  python3 - "$access_log" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert len(lines) >= 8, f"expected >= 8 access-log lines, got {len(lines)}"
for entry in lines:
    for key in ("ts_ms", "op", "ok", "bytes_in", "bytes_out", "queue_ms",
                "exec_ms", "cache_hit", "slow", "trace_id", "span_id",
                "lane", "parse_us", "queue_us", "execute_us", "write_us",
                "total_us"):
        assert key in entry, f"access-log line missing {key}: {entry}"
traced = [e for e in lines if e["trace_id"]]
assert traced, "no traced request reached the access log"
print(f"access log ok ({len(lines)} lines, {len(traced)} traced)")
EOF
  echo "server smoke ($bindir): ok"
}

# Crash post-mortem: SIGSEGV a loaded daemon mid-request and require a
# parseable NDJSON dump naming the in-flight request by trace_id.
postmortem_smoke() {
  local bindir="$1"
  local sock="@netpart-pm-$$-${bindir//\//-}"
  local pm="$bindir/postmortem-smoke.ndjson"
  rm -f "$pm"
  "$bindir/tools/netpartd" --socket "$sock" --postmortem "$pm" \
    --debug-ops --pool-lanes 2 &
  local pid=$!
  trap 'kill "$pid" 2>/dev/null || true' RETURN
  local i
  for i in $(seq 1 50); do
    if "$bindir/tools/netpartc" --socket "$sock" ping >/dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  "$bindir/tools/netpartc" --socket "$sock" load pm1 bm1
  # Park a traced request on a lane so the dump catches it in flight.
  "$bindir/tools/netpartc" --socket "$sock" raw \
    '{"id":1,"op":"sleep","sleep_ms":3000,"trace_id":"feedfacefeedfacefeedfacefeedface","span_id":"feedfacefeedface"}' \
    >/dev/null 2>&1 &
  local cpid=$!
  sleep 0.5
  kill -SEGV "$pid"
  wait "$pid" 2>/dev/null && { echo "daemon survived SIGSEGV"; return 1; }
  wait "$cpid" 2>/dev/null || true
  python3 - "$pm" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert lines, "empty postmortem"
head = lines[0]
assert head["type"] == "postmortem" and head["signal"] == 11, head
recs = [l for l in lines if l.get("type") == "request"]
assert recs, "no request records in postmortem"
tid = "feedfacefeedfacefeedfacefeedface"
mine = [r for r in recs if r.get("trace_id") == tid]
assert mine, f"in-flight trace_id missing from postmortem: {recs}"
assert any(r["outcome"] == "running" for r in mine), mine
print(f"postmortem ok ({len(recs)} records, in-flight request captured)")
EOF
  echo "postmortem smoke ($bindir): ok"
}

# Telemetry exporters, driven through the CLI: a real partition run must
# produce a parseable, properly-nested Chrome trace and a Prometheus
# exposition.  Also self-tests the bench regression gate.
telemetry_smoke() {
  local bindir="$1"
  "$bindir/tools/netpart" partition bm1 igmatch \
    --trace-out "$bindir/trace-smoke.json" \
    --metrics-out "$bindir/metrics-smoke.prom" --metrics-format prom
  python3 scripts/validate_trace.py "$bindir/trace-smoke.json" --min-events 5
  grep -q '^# TYPE netpart_run_info gauge' "$bindir/metrics-smoke.prom"
  python3 scripts/bench_gate.py --self-test
  # Sampling profiler + convergence events end to end: a real run on a
  # non-toy circuit must yield valid, well-attributed folded stacks and an
  # NDJSON stream carrying the Lanczos-residual and FM-gain series.
  "$bindir/tools/netpart" partition 19ks igmatch-refined \
    --profile-out "$bindir/profile-smoke.folded" \
    --events-out "$bindir/events-smoke.ndjson" > /dev/null
  python3 scripts/validate_folded.py "$bindir/profile-smoke.folded" \
    --min-samples 10
  python3 - "$bindir/events-smoke.ndjson" <<'EOF'
import json, sys
kinds = {}
for line in open(sys.argv[1]):
    ev = json.loads(line)
    assert isinstance(ev["seq"], int) and isinstance(ev["kind"], str), ev
    kinds[ev["kind"]] = kinds.get(ev["kind"], 0) + 1
for kind in ("lanczos.iteration", "fm.pass"):
    assert kinds.get(kind), f"no {kind} events: {kinds}"
print(f"events ok ({sum(kinds.values())} events, {len(kinds)} kinds)")
EOF
  echo "telemetry smoke ($bindir): ok"
}

cmake -B build -G Ninja -DNETPART_WARNINGS_AS_ERRORS=ON
cmake --build build
if [ "$FAST" -eq 1 ]; then
  ctest --test-dir build --output-on-failure -LE slow
  exit 0
fi
ctest --test-dir build --output-on-failure
server_smoke build
postmortem_smoke build
telemetry_smoke build

# Perf smoke: quick-mode kernel microbenches gated against the committed
# baseline, so a hot-loop regression fails fast instead of surfacing hours
# later in the full bench loop.  Quick mode writes outside bench-out/ on
# purpose — baselines are only ever recorded from full-mode runs.
mkdir -p build/perf-smoke
./build/bench/kernels build/perf-smoke/BENCH_kernels.json --quick
if [ -f BENCH_kernels.json ]; then
  python3 scripts/bench_gate.py \
    BENCH_kernels.json build/perf-smoke/BENCH_kernels.json \
    --key spmv_ms:lower:20 --key matcher_sweep_ms:lower:20 \
    --key sweep_eval_ms:lower:20
fi
# Load-test smoke: the open-loop generator against a live 4-lane pool with
# admission control — a low-QPS step must shed nothing, a past-saturation
# step must shed (the binary enforces both and exits nonzero otherwise).
./build/bench/loadtest build/perf-smoke/BENCH_loadtest.json --smoke
# V-cycle perf smoke: quality suite + the 100k auto-route (quick mode skips
# the 1M run; the committed baseline's 1M keys are gated in the full bench
# loop below).  The correctness booleans get no allowance.
./build/bench/vcycle build/perf-smoke/BENCH_vcycle.json --quick
if [ -f BENCH_vcycle.json ]; then
  python3 scripts/bench_gate.py \
    BENCH_vcycle.json build/perf-smoke/BENCH_vcycle.json \
    --key vcycle_100k_ms:lower:50 \
    --require-true quality_all_within_5pct \
    --require-true routed_100k --require-true proper_100k
fi

# ThreadSanitizer pass over the concurrency-sensitive binaries.  Only the
# targets that exercise the pool, the shared metrics registry, and the
# incremental repartitioning session (warm Lanczos restarts on the pool) are
# built and run — a full TSan suite would be prohibitively slow.
# io_fuzz_test rides along for the exporters: to_prometheus/to_chrome_trace
# must stay race-free against a live registry.
cmake -B build-tsan -G Ninja -DNETPART_SANITIZE=thread \
  -DNETPART_BUILD_BENCHMARKS=OFF -DNETPART_BUILD_EXAMPLES=OFF
cmake --build build-tsan --target parallel_test obs_test fm_partition_test \
  repart_property_test coarsen_property_test igmatch_oracle_test \
  server_test io_fuzz_test flight_recorder_test
./build-tsan/tests/parallel_test
./build-tsan/tests/obs_test
./build-tsan/tests/flight_recorder_test
./build-tsan/tests/server_test
./build-tsan/tests/io_fuzz_test
NETPART_THREADS=4 ./build-tsan/tests/fm_partition_test
NETPART_THREADS=4 ./build-tsan/tests/repart_property_test
NETPART_THREADS=4 ./build-tsan/tests/coarsen_property_test
NETPART_THREADS=4 ./build-tsan/tests/igmatch_oracle_test

# Bench loop.  The JSON-exporting benches write into build/bench-out/ so a
# local run never clobbers the committed BENCH_*.json baselines; the gate
# below then compares fresh results against those baselines.
mkdir -p build/bench-out
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo "==== $b ===="
  case "$(basename "$b")" in
    repartition|scaling|serving|kernels|vcycle|loadtest)
      "$b" "build/bench-out/BENCH_$(basename "$b").json" ;;
    *)
      "$b" ;;
  esac
done

# Regression gate: fail the check when a headline number slid by more than
# the allowance (machines differ; correctness booleans get no allowance).
if [ -f build/bench-out/BENCH_repartition.json ]; then
  python3 scripts/bench_gate.py \
    BENCH_repartition.json build/bench-out/BENCH_repartition.json \
    --key speedup:higher:25 --key warm_final_ratio:lower:10 \
    --require-true all_ig_identical
fi
if [ -f build/bench-out/BENCH_scaling.json ]; then
  python3 scripts/bench_gate.py \
    BENCH_scaling.json build/bench-out/BENCH_scaling.json \
    --require-true all_identical_to_serial
fi
if [ -f build/bench-out/BENCH_kernels.json ]; then
  python3 scripts/bench_gate.py \
    BENCH_kernels.json build/bench-out/BENCH_kernels.json \
    --key spmv_ms:lower:20 --key matcher_sweep_ms:lower:20 \
    --key sweep_eval_ms:lower:20
fi
if [ -f build/bench-out/BENCH_loadtest.json ]; then
  python3 scripts/bench_gate.py \
    BENCH_loadtest.json build/bench-out/BENCH_loadtest.json \
    --key pool_max_qps:higher:34 \
    --require-true pool_3x --require-true p99_no_worse
fi
if [ -f build/bench-out/BENCH_vcycle.json ]; then
  python3 scripts/bench_gate.py \
    BENCH_vcycle.json build/bench-out/BENCH_vcycle.json \
    --key vcycle_100k_ms:lower:50 --key vcycle_1m_ms:lower:50 \
    --require-true quality_all_within_5pct \
    --require-true routed_100k --require-true proper_100k \
    --require-true proper_1m --require-true single_digit_seconds_1m
fi
