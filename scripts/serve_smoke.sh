#!/usr/bin/env bash
# Serving-layer smoke test (CI `serve-smoke` job / `make serve-smoke`).
#
# Boots `repro serve` on the virtual clock with an embedded spike
# profile — request tracing, SLO burn-rate monitoring and a debug
# bundle all enabled — waits for the bounded run to finish while the
# admin endpoints stay up, then asserts over HTTP that:
#   * /healthz answers and reports the run complete,
#   * /metrics is non-empty Prometheus text with the labelled
#     per-node admission counters,
#   * /view carries the health, the sampled series and the perf stages
#     that /dashboard and `repro top` render,
#   * admission control shed load during the spike (rejected > 0 — the
#     150 txn/s spike peak exceeds the 2-node capacity ceiling, so
#     queues hit --queue-limit no matter how fast scale-out runs),
#   * at least one reconfiguration completed (exit code via
#     --require-moves 1).
# After shutdown it round-trips the exported debug bundle: the manifest
# digests must verify and `repro.cli explain` must render the planner
# decision audit (the run outlives the SPAR fit slot), the SLO alert
# fired during the spike, and the request-trace summary.  CI uploads
# the bundle as an artifact.  A tenant leg then checks X-Tenant routing,
# and a last leg boots a virtual server with no --duration and checks
# that it ticks only when work is due (0 ticks idle, 20 for 20 /txn).
#
# `serve_smoke.sh --faults` runs the chaos variant instead (CI
# `chaos-serve-smoke` job / `make chaos-serve-smoke`): a no-HTTP
# virtual-clock run with a node crash + recovery mid-run under
# `--resilience`/`--retries`/`--checkpoint`, asserting that traffic hit
# the crashed node's stale routing view, that every breaker closed
# again after recovery, that request conservation (offered = served +
# shed + errored + in-flight) holds exactly, and that `--restore` from
# the mid-run checkpoint reproduces the uninterrupted run's report
# bit-for-bit — once with `--no-http` and once over HTTP (`--port 0`).
# See docs/ROBUSTNESS.md § Serving-path fault tolerance.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

chaos_smoke() {
    local BUNDLE="${BUNDLE_DIR:-out/chaos-serve-smoke-bundle}"
    local CKPT OUT1 OUT2 REPORT LEG
    CKPT=$(mktemp) OUT1=$(mktemp) OUT2=$(mktemp)
    REPORT='^(offered|throughput|latency|errors|conservation|resilience)'
    rm -rf "$BUNDLE"
    trap 'rm -f "$CKPT" "$OUT1" "$OUT2"' RETURN

    # Node 1 crashes at t=90 and recovers at t=180; checkpoints land on
    # the 180 s cadence, so at least one is written while the fault plan
    # is already resolved and the run is quiescent.
    local ARGS=(
        python -m repro.cli serve --clock virtual --duration 600
        --profile "poisson:rate=10" --seed 7
        --saturation 12 --db-size-mb 5 --nodes 3 --max-nodes 4
        --interval-seconds 60 --queue-limit 8
        --spar "period=12,periods=2,recent=2,horizon=4"
        --faults "crash@90:n1:recover=90"
        --resilience "miss=3,open=20,halfopen=2,brownout=0.5,shed=1"
        --retries "max=3,base=1,cap=8,floor=200"
        --checkpoint "$CKPT" --checkpoint-every 180
    )

    "${ARGS[@]}" --no-http --debug-bundle "$BUNDLE" | tee "$OUT1"

    grep -q 'fault plan in force' "$OUT1" \
        || { echo "chaos run never installed the fault plan" >&2; return 1; }
    # The crashed node must have eaten traffic from the stale router
    # view before its breaker opened — otherwise the chaos was a no-op.
    ERRORS=$(grep -oE 'resilience: errors [0-9]+' "$OUT1" | grep -oE '[0-9]+$' || true)
    [ "${ERRORS:-0}" -gt 0 ] \
        || { echo "no requests hit the crashed node's stale view" >&2; return 1; }
    grep -q 'n1=closed' "$OUT1" \
        || { echo "breaker for the crashed node never closed again" >&2; return 1; }
    # Zero dropped-but-unaccounted requests: the conservation identity
    # must hold exactly.
    if grep -q 'MISMATCH' "$OUT1"; then
        echo "request conservation MISMATCH — requests dropped unaccounted" >&2
        return 1
    fi
    grep -q 'conservation: .*(exact)' "$OUT1" \
        || { echo "chaos run printed no conservation verdict" >&2; return 1; }
    grep -q 'checkpoints written:' "$OUT1" \
        || { echo "no checkpoint was written during the chaos run" >&2; return 1; }

    # Crash-recover the whole process: restore from the last mid-run
    # checkpoint and serve the remainder; the final report must be
    # bit-identical to the uninterrupted run's.  Once without HTTP and
    # once under the HTTP pacer — both front ends step the one session.
    # (540 s + the 180 s cadence is past the end of the run, so neither
    # leg overwrites the checkpoint it resumes from.)
    for LEG in "--no-http" "--port 0"; do
        # shellcheck disable=SC2086  # LEG is one or two words on purpose
        "${ARGS[@]}" $LEG --restore "$CKPT" | tee "$OUT2"
        grep -q 'restored from' "$OUT2" \
            || { echo "restore leg ($LEG) did not resume from the checkpoint" >&2; return 1; }
        if ! diff <(grep -E "$REPORT" "$OUT1") <(grep -E "$REPORT" "$OUT2"); then
            echo "restored run ($LEG) differs from the uninterrupted run" >&2
            return 1
        fi
    done

    [ -f "$BUNDLE/MANIFEST.json" ] || { echo "no debug bundle at $BUNDLE" >&2; return 1; }
    python -c "from repro.telemetry.bundle import verify_bundle; verify_bundle('$BUNDLE')" \
        || { echo "bundle manifest failed verification" >&2; return 1; }
    echo "chaos smoke passed: conservation exact, breakers closed, restore bit-identical"
}

if [ "${1:-}" = "--faults" ]; then
    chaos_smoke
    exit $?
fi

OUT=$(mktemp)
BUNDLE="${BUNDLE_DIR:-out/serve-smoke-bundle}"
TS_DUMP="${TS_DUMP:-out/serve-smoke-timeseries.json}"
rm -rf "$BUNDLE"
mkdir -p "$(dirname "$TS_DUMP")"
rm -f "$TS_DUMP"
SERVER_PID=""

# Always reap the server: kill alone leaves a zombie until the shell
# exits, and an early failure path would otherwise never collect the
# child at all.  `wait` after kill is the reap; its status is the
# child's and deliberately ignored here — the cleanup path must not
# rewrite the script's own exit code under `set -e`.
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -f "$OUT"
}
trap cleanup EXIT

# 4800 s of virtual time: the small SPAR (period=12, recent=2) first
# fits at interval 62, so the audit trail has predictive replans to
# explain; the unpredicted spike at t=300 exercises shedding, the SLO
# alert and the reactive scale-out long before the model exists.
python -m repro.cli serve \
    --clock virtual --port 0 --duration 4800 \
    --profile "spike:rate=15,at=300,magnitude=10,ramp=60,plateau=300,decay=120" \
    --saturation 60 --db-size-mb 20 --nodes 1 --max-nodes 2 \
    --interval-seconds 60 --spar "period=12,periods=2,recent=2,horizon=4" \
    --queue-limit 5 --linger 120 --require-moves 1 \
    --trace-requests \
    --slo "objective=0.9,latency=60000,fast=120,slow=600,burn=2" \
    --timeseries "$TS_DUMP" --perf \
    --debug-bundle "$BUNDLE" >"$OUT" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 120); do
    PORT=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$OUT" | head -1 | grep -oE '[0-9]+$' || true)
    if [ -n "$PORT" ] && curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server exited before becoming healthy:" >&2
        cat "$OUT" >&2
        exit 1
    fi
    sleep 1
done
[ -n "$PORT" ] || { echo "server never published a port" >&2; cat "$OUT" >&2; exit 1; }
echo "server healthy on port $PORT"

# Wait for the virtual run itself to complete (healthz flips run_complete).
for _ in $(seq 1 180); do
    HEALTH=$(curl -sf "http://127.0.0.1:$PORT/healthz" || true)
    case "$HEALTH" in *'"run_complete": true'*) break ;; esac
    sleep 1
done
echo "healthz: $HEALTH"
case "$HEALTH" in
    *'"run_complete": true'*) ;;
    *) echo "run never completed" >&2; cat "$OUT" >&2; exit 1 ;;
esac
case "$HEALTH" in
    *'"rejected": 0,'*) echo "expected shed load during the spike" >&2; exit 1 ;;
esac
case "$HEALTH" in
    *'"slo"'*) ;;
    *) echo "healthz is missing the SLO state" >&2; exit 1 ;;
esac

METRICS=$(curl -sf "http://127.0.0.1:$PORT/metrics")
[ -n "$METRICS" ] || { echo "/metrics is empty" >&2; exit 1; }
echo "$METRICS" | grep -q '^repro_serve_admitted_total ' \
    || { echo "/metrics is missing serve counters" >&2; exit 1; }
echo "$METRICS" | grep -q '^repro_serve_admit_shed_total{node=' \
    || { echo "/metrics is missing labelled admission counters" >&2; exit 1; }
echo "$METRICS" | grep -q '^repro_slo_fast_burn ' \
    || { echo "/metrics is missing SLO burn gauges" >&2; exit 1; }
echo "$METRICS" | grep -q '^repro_perf_engine_tick_ms_count ' \
    || { echo "/metrics is missing the wall-clock perf families" >&2; exit 1; }
echo "/metrics: $(echo "$METRICS" | wc -l) lines"

# Live observability surface: the time-series API, the operator view,
# the dashboard page and one frame of the terminal top view.
curl -sf "http://127.0.0.1:$PORT/view" | python -c "
import json, sys
view = json.load(sys.stdin)
assert view['health']['status'], view['health']
assert 'serve.machines' in view['series'], sorted(view['series'])
assert any(row['name'] == 'engine.tick' for row in view['perf']['stages']), view['perf']
" || { echo "/view is broken" >&2; exit 1; }
curl -sf "http://127.0.0.1:$PORT/timeseries" | python -c "
import json, sys
doc = json.load(sys.stdin)
assert 'serve.machines' in doc['series'], doc['series'][:5]
assert doc['windows'] == [1, 10, 100], doc['windows']
assert doc['samples'] > 0
" || { echo "/timeseries index is broken" >&2; exit 1; }
curl -sf "http://127.0.0.1:$PORT/timeseries?name=serve.machines&window=10" \
    | python -c "
import json, sys
doc = json.load(sys.stdin)
assert doc['points'], 'no rollup windows for serve.machines'
" || { echo "/timeseries named query is broken" >&2; exit 1; }
DASH=$(curl -sf "http://127.0.0.1:$PORT/dashboard")
case "$DASH" in
    *"<!doctype html>"*|*"<!DOCTYPE html>"*) ;;
    *) echo "/dashboard did not return HTML" >&2; exit 1 ;;
esac
echo "/dashboard: $(echo "$DASH" | wc -c) bytes"
TOP=$(python -m repro.cli top --once --url "http://127.0.0.1:$PORT")
echo "$TOP"
echo "$TOP" | grep -q 'repro top — status' \
    || { echo "repro top rendered no status header" >&2; exit 1; }
echo "$TOP" | grep -q 'serve.machines' \
    || { echo "repro top rendered no sparkline from the store" >&2; exit 1; }

curl -sf -X POST "http://127.0.0.1:$PORT/shutdown" >/dev/null
# Under `set -e` a bare `wait` would abort the script on a non-zero
# server exit before the log or status ever surfaced; capture it
# explicitly so the output is printed and the real code propagates.
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
cat "$OUT"
# --require-moves 1 makes a run without a completed reconfiguration exit 1.
if [ "$STATUS" -ne 0 ]; then
    echo "server exited with status $STATUS" >&2
    exit "$STATUS"
fi

# Round-trip the debug bundle: digests verify, explain renders the
# decision audit, the SLO alert and the request traces.
[ -f "$BUNDLE/MANIFEST.json" ] || { echo "no debug bundle at $BUNDLE" >&2; exit 1; }
python -c "from repro.telemetry.bundle import verify_bundle; verify_bundle('$BUNDLE')" \
    || { echo "bundle manifest failed verification" >&2; exit 1; }
EXPLAIN=$(python -m repro.cli explain "$BUNDLE")
echo "$EXPLAIN"
echo "$EXPLAIN" | grep -q 'replans audited' \
    || { echo "explain found no audited planner decisions" >&2; exit 1; }
echo "$EXPLAIN" | grep -q 'SLO burn-rate alerts' \
    || { echo "explain is missing the SLO alert section" >&2; exit 1; }
echo "$EXPLAIN" | grep -q 'fire' \
    || { echo "expected the SLO alert to fire during the spike" >&2; exit 1; }
echo "$EXPLAIN" | grep -q 'traced requests' \
    || { echo "explain is missing the request-trace summary" >&2; exit 1; }
echo "debug bundle verified and explained: $BUNDLE"

# The --timeseries PATH dump must have landed and parse as the
# versioned format (CI uploads it as an artifact).
[ -f "$TS_DUMP" ] || { echo "no timeseries dump at $TS_DUMP" >&2; exit 1; }
python -c "
import json
doc = json.load(open('$TS_DUMP'))
assert doc['format'] == 'repro-timeseries/1', doc['format']
assert doc['points'], 'dump has no points'
" || { echo "timeseries dump failed validation" >&2; exit 1; }
echo "timeseries dump verified: $TS_DUMP"

# ----------------------------------------------------------------------
# Tenant-tagged HTTP traffic: X-Tenant routing, 403 on unknown tenants,
# and the live views rendering per-tenant state.
# ----------------------------------------------------------------------
TENANT_SPEC=$(mktemp) TENANT_OUT=$(mktemp)
cat >"$TENANT_SPEC" <<'EOF'
{
  "tenants": [
    {"name": "checkout", "profile": "poisson:rate=4", "weight": 3,
     "latency_slo_ms": 2000.0, "slo_objective": 0.9},
    {"name": "search", "profile": "poisson:rate=2"}
  ]
}
EOF
tenant_cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -f "$OUT" "$TENANT_SPEC" "$TENANT_OUT"
}
trap tenant_cleanup EXIT

# Long virtual duration so the run is still in progress while we probe;
# the shutdown below ends it early via the graceful drain.
python -m repro.cli serve \
    --clock virtual --port 0 --duration 86400 \
    --tenants "$TENANT_SPEC" --control none \
    --saturation 60 --db-size-mb 20 --nodes 2 --max-nodes 2 \
    --queue-limit 5 --linger 120 --timeseries >"$TENANT_OUT" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 120); do
    PORT=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$TENANT_OUT" | head -1 | grep -oE '[0-9]+$' || true)
    if [ -n "$PORT" ] && curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "tenant server exited before becoming healthy:" >&2
        cat "$TENANT_OUT" >&2
        exit 1
    fi
    sleep 1
done
[ -n "$PORT" ] || { echo "tenant server never published a port" >&2; cat "$TENANT_OUT" >&2; exit 1; }
echo "tenant server healthy on port $PORT"

CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'X-Tenant: checkout' "http://127.0.0.1:$PORT/txn")
[ "$CODE" = "200" ] || [ "$CODE" = "503" ] \
    || { echo "tagged /txn returned $CODE" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'X-Tenant: mallory' "http://127.0.0.1:$PORT/txn")
[ "$CODE" = "403" ] \
    || { echo "unknown tenant must be 403, got $CODE" >&2; exit 1; }
curl -sf "http://127.0.0.1:$PORT/metrics" \
    | grep -q '^repro_serve_tenant_rejected_total ' \
    || { echo "/metrics is missing the tenant rejection counter" >&2; exit 1; }
curl -sf "http://127.0.0.1:$PORT/view" | python -c "
import json, sys
served = json.load(sys.stdin)['tenants']['checkout']['served']
assert isinstance(served, int), served
" || { echo "/view is missing the per-tenant served count" >&2; exit 1; }
TOP=$(python -m repro.cli top --once --url "http://127.0.0.1:$PORT")
echo "$TOP" | grep -q 'checkout' \
    || { echo "repro top rendered no per-tenant rows" >&2; exit 1; }
curl -sf "http://127.0.0.1:$PORT/dashboard" >/dev/null \
    || { echo "tenant-mode /dashboard failed" >&2; exit 1; }
echo "tenant traffic smoke passed: tagged 200s, unknown 403, live views render"

curl -sf -X POST "http://127.0.0.1:$PORT/shutdown" >/dev/null
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "tenant server exited with status $STATUS" >&2
    cat "$TENANT_OUT" >&2
    exit "$STATUS"
fi

# ----------------------------------------------------------------------
# Demand-driven virtual time: with no --duration a virtual server ticks
# only when work is due — none while idle, exactly one per sequential
# /txn — and still drains and exits 0 on /shutdown.
# ----------------------------------------------------------------------
LEG_START=$(date +%s%N)
IDLE_OUT=$(mktemp)
idle_cleanup() {
    tenant_cleanup
    rm -f "$IDLE_OUT"
}
trap idle_cleanup EXIT

python -m repro.cli serve --clock virtual --port 0 --control none --nodes 2 \
    >"$IDLE_OUT" 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 200); do
    PORT=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$IDLE_OUT" | head -1 | grep -oE '[0-9]+$' || true)
    [ -n "$PORT" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "idle server exited before publishing a port:" >&2
        cat "$IDLE_OUT" >&2
        exit 1
    fi
    sleep 0.05
done
[ -n "$PORT" ] || { echo "idle server never published a port" >&2; exit 1; }

health_field() {  # health_field NAME -> the integer NAME of /healthz
    curl -sf "http://127.0.0.1:$PORT/healthz" \
        | grep -oE "\"$1\": [0-9]+" | grep -oE '[0-9]+$'
}
sleep 0.5
TICKS=$(health_field ticks)
[ "$TICKS" = "0" ] || { echo "idle virtual server ticked $TICKS times" >&2; exit 1; }
for _ in $(seq 1 20); do
    CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://127.0.0.1:$PORT/txn")
    [ "$CODE" = "200" ] || { echo "idle-server /txn returned $CODE" >&2; exit 1; }
done
for FIELD in ticks accepted completed; do
    VALUE=$(health_field "$FIELD")
    [ "$VALUE" = "20" ] \
        || { echo "after 20 sequential /txn, $FIELD is $VALUE, not 20" >&2; exit 1; }
done

curl -sf -X POST "http://127.0.0.1:$PORT/shutdown" >/dev/null
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "idle server exited with status $STATUS" >&2
    cat "$IDLE_OUT" >&2
    exit "$STATUS"
fi
echo "demand-driven virtual time passed: 0 idle ticks, 20 ticks for 20 /txn" \
    "($(( ($(date +%s%N) - LEG_START) / 1000000 )) ms)"
