#!/usr/bin/env bash
# Distributed soak smoke test (CI `soak-smoke` job / `make soak-smoke`).
#
# Runs `repro serve --workers 3`: an edge process routing a Poisson
# stream across a fleet of spawned worker shards over multiprocessing
# pipes — the api/worker process split — for 60 s of virtual time, with
# request tracing, SLO burn-rate monitoring and a debug bundle enabled.
# The command itself gates on the run (--max-p99, --max-shed-rate, and
# the exact request-conservation identity offered = served + shed +
# errored + in-flight) and exits non-zero on any breach; the script
# re-asserts the verdicts from the printed report and round-trips the
# artifacts CI uploads:
#   * out/soak-report.json — the machine-readable gate report,
#   * out/soak-smoke-bundle — digest-verified debug bundle with the
#     merged cross-process telemetry.
# A restore leg then crash-recovers the whole fleet from the last
# mid-run checkpoint (the one `repro-serve-checkpoint/1` format and the
# one `ServeSession` resume path, across real processes) and must print
# the uninterrupted run's report.
# A wire leg then runs one 2-worker overload twice — over pipes and over
# `--transport tcp` — at a rate that makes every `step` frame larger than
# a loopback segment, so the binary frames cross a real socket in partial
# reads; the two reports must be equal line for line.
# An HTTP leg then serves that overload a third time with the fleet
# behind `ServeApp` (`--clock virtual --port 0`, no `--no-http`): while it
# lingers `/healthz` must answer with the `workers` block and `/metrics`
# with the workers' registries (no flag asks for them), and after
# `POST /shutdown` its report must again equal the `--no-http` one.
# See docs/SERVING.md § Distributed serving.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

REPORT="${REPORT_PATH:-out/soak-report.json}"
BUNDLE="${BUNDLE_DIR:-out/soak-smoke-bundle}"
CKPT="${CKPT_PATH:-out/soak.ckpt}"
OUT=$(mktemp)
OUT2=$(mktemp)
OUT3=$(mktemp)
OUT4=$(mktemp)
OUT5=$(mktemp)
SERVER_PID=""
mkdir -p "$(dirname "$CKPT")"
rm -rf "$BUNDLE"
rm -f "$REPORT" "$CKPT"

# The soak's worker processes are children of the `repro serve` process
# and are reaped by its session teardown; the trap covers the script's
# own scratch state and the HTTP leg's background server.  STATUS is
# captured explicitly so a gate breach (exit 1) still prints the report
# before the script propagates it.
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -f "$OUT" "$OUT2" "$OUT3" "$OUT4" "$OUT5"
}
trap cleanup EXIT

# Snapshots land at t=25 and t=50: the file the restore leg resumes from
# is mid-run, and 50 s + the cadence is past the end, so that leg does
# not overwrite it.
SOAK=(python -m repro.cli serve --no-http --control none
    --workers 3 --transport pipe
    --profile poisson:rate=300 --duration 60 --seed 7
    --nodes 1 --max-nodes 4 --saturation 438 --queue-limit 8
    --max-p99 500 --max-shed-rate 0.2
    --trace-requests
    --slo
    --checkpoint "$CKPT" --checkpoint-every 25)

STATUS=0
"${SOAK[@]}" \
    --report "$REPORT" \
    --debug-bundle "$BUNDLE" | tee "$OUT" || STATUS=$?

if [ "$STATUS" -ne 0 ]; then
    echo "soak gates failed (exit $STATUS):" >&2
    grep 'GATE FAIL' "$OUT" >&2 || true
    exit "$STATUS"
fi

# Belt and braces on top of the command's own gating: the printed
# report must carry the exact-conservation verdict and the PASS line.
if grep -q 'MISMATCH' "$OUT"; then
    echo "request conservation MISMATCH — requests dropped unaccounted" >&2
    exit 1
fi
grep -q 'conservation: .*(exact)' "$OUT" \
    || { echo "soak printed no conservation verdict" >&2; exit 1; }
grep -q 'gates: PASS' "$OUT" \
    || { echo "soak report is missing the gate verdict" >&2; exit 1; }

[ -f "$REPORT" ] || { echo "no soak report at $REPORT" >&2; exit 1; }
python - "$REPORT" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["format"] == "repro-soak-report/1", doc.get("format")
assert doc["passed"] is True, doc["failures"]
assert doc["conserved"] is True
assert doc["offered"] > 0
PY
echo "soak report verified: $REPORT"

[ -f "$BUNDLE/MANIFEST.json" ] || { echo "no debug bundle at $BUNDLE" >&2; exit 1; }
python -c "from repro.telemetry.bundle import verify_bundle; verify_bundle('$BUNDLE')" \
    || { echo "bundle manifest failed verification" >&2; exit 1; }
grep -q 'checkpoints written: 2' "$OUT" \
    || { echo "the soak did not write its two mid-run checkpoints" >&2; exit 1; }
"${SOAK[@]}" --restore "$CKPT" | tee "$OUT2"
grep -q 'restored from .* at t=50s; serving the remaining 10s' "$OUT2" \
    || { echo "restore leg did not resume from the t=50s checkpoint" >&2; exit 1; }
LINES='^(offered|throughput|latency|conservation|workers:|SLO)'
if ! diff <(grep -E "$LINES" "$OUT") <(grep -E "$LINES" "$OUT2"); then
    echo "restored soak differs from the uninterrupted soak" >&2
    exit 1
fi

# 3000 requests per worker and tick: ~170 kB of reply columns a frame.
# Undersized on purpose, so the replies hold shed rows and completions.
WIRE=(python -m repro.cli serve --control none
    --workers 2
    --profile poisson:rate=6000 --duration 30 --seed 7
    --nodes 4 --max-nodes 4 --saturation 1300 --queue-limit 0.5
    --max-p99 500 --max-shed-rate 0.2
    --slo)
"${WIRE[@]}" --no-http --transport pipe > "$OUT3"
"${WIRE[@]}" --no-http --transport tcp | tee "$OUT4"
grep -q 'shed [1-9]' "$OUT4" \
    || { echo "the wire leg shed nothing: its replies carry no reject rows" >&2; exit 1; }
if ! diff <(grep -E "$LINES" "$OUT3") <(grep -E "$LINES" "$OUT4"); then
    echo "tcp soak differs from the pipe soak" >&2
    exit 1
fi

# The same fleet behind HTTP: the pacer steps the session `--no-http`
# loops over, so the report lines are the pipe leg's.
"${WIRE[@]}" --transport pipe --clock virtual --port 0 --linger 60 > "$OUT5" 2>&1 &
SERVER_PID=$!
HEALTH=""
for _ in $(seq 1 300); do
    PORT=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$OUT5" | head -1 | grep -oE '[0-9]+$' || true)
    HEALTH=$([ -n "$PORT" ] && curl -sf "http://127.0.0.1:$PORT/healthz" || true)
    case "$HEALTH" in *'"run_complete": true'*) break ;; esac
    kill -0 "$SERVER_PID" 2>/dev/null \
        || { echo "fleet server exited early:" >&2; cat "$OUT5" >&2; exit 1; }
    sleep 0.1
done
case "$HEALTH" in
    *'"workers": {"0": {'*'"run_complete": true'*) ;;
    *) echo "fleet /healthz never answered with its workers: $HEALTH" >&2; exit 1 ;;
esac
# Only workers count ticks; a worker gauge is re-labelled with its id.
METRICS=$(curl -sf "http://127.0.0.1:$PORT/metrics")
grep -q '^repro_serve_ticks_total ' <<<"$METRICS" \
    || { echo "fleet /metrics lacks the workers' repro_serve_ticks_total" >&2; exit 1; }
grep -q '^repro_serve_machines{worker="1"} ' <<<"$METRICS" \
    || { echo "fleet /metrics lacks worker 1's repro_serve_machines gauge" >&2; exit 1; }
curl -sf -X POST "http://127.0.0.1:$PORT/shutdown" >/dev/null
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
cat "$OUT5"
[ "$STATUS" -eq 0 ] || { echo "fleet behind HTTP exited $STATUS" >&2; exit "$STATUS"; }
if ! diff <(grep -E "$LINES" "$OUT3") <(grep -E "$LINES" "$OUT5"); then
    echo "the fleet behind HTTP differs from the same fleet under --no-http" >&2
    exit 1
fi
echo "soak smoke passed: gates green, conservation exact, bundle verified, restore bit-identical, tcp equals pipe, HTTP equals --no-http"
