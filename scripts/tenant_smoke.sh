#!/usr/bin/env bash
# Multi-tenant serving smoke test (CI `tenant-smoke` job /
# `make tenant-smoke`).
#
# Writes a three-tenant spec file (a weight-3 storefront, a weight-2
# wikipedia-shaped read tier and a weight-1 batch tenant capped by a
# token-bucket quota), runs `repro serve --tenants` end to end on the
# virtual clock with SLO monitoring and a debug bundle, and asserts:
#   * the composite workload tagged all three tenants,
#   * the quota-capped tenant actually shed load (quota shed > 0),
#   * per-tenant conservation (offered = served + shed + errored +
#     in-flight) holds exactly for every tenant — any MISMATCH fails,
#   * the bundle's manifest digests verify and `repro.cli explain`
#     renders the per-tenant serving table.
# An edge leg then serves the same spec file and the same composite
# schedule through `repro serve --workers 2 --transport pipe`, a fleet
# with the tenant policy at the edge: per-tenant conservation must again
# be exact, and — the admission policy chain and the outcome ledger
# being one piece of code wherever they run — the batch tenant's quota
# shed must be the single-engine leg's number, in the printed report and
# in the edge's `serve.tenant.quota_shed{tenant="batch"}` counter.
# CI uploads the bundle as an artifact.  See docs/SERVING.md
# § Multi-tenant serving.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

BUNDLE="${BUNDLE_DIR:-out/tenant-smoke-bundle}"
DURATION=1800
SPEC=$(mktemp --suffix=.json)
OUT=$(mktemp)
EDGE_OUT=$(mktemp)
EDGE_METRICS=$(mktemp --suffix=.jsonl)
trap 'rm -f "$SPEC" "$OUT" "$EDGE_OUT" "$EDGE_METRICS"' EXIT
rm -rf "$BUNDLE"

# Both legs print the same report lines; these read them.
batch_quota_shed() {  # <output file>
    grep -oE 'tenant batch: offered [0-9]+ \| quota shed [0-9]+' "$1" \
        | grep -oE '[0-9]+$' || true
}
# Per-tenant conservation: one exact line per tenant, zero mismatches.
assert_conserved() {  # <leg> <output file>
    if grep -q 'MISMATCH' "$2"; then
        echo "$1: per-tenant conservation MISMATCH — requests dropped unaccounted" >&2
        exit 1
    fi
    for TENANT in storefront wiki batch; do
        grep -q "conservation{tenant=\"$TENANT\"}: .*(exact)" "$2" \
            || { echo "$1: no exact conservation line for tenant $TENANT" >&2; exit 1; }
    done
}

cat >"$SPEC" <<'EOF'
{
  "tenants": [
    {"name": "storefront", "profile": "trace:kind=b2w,rate=25", "weight": 3,
     "latency_slo_ms": 2000.0, "slo_objective": 0.95},
    {"name": "wiki", "profile": "trace:kind=wikipedia,lang=en,days=1,rate=18",
     "weight": 2, "latency_slo_ms": 2000.0, "slo_objective": 0.95},
    {"name": "batch", "profile": "poisson:rate=12", "weight": 1,
     "quota_rps": 8.0, "latency_slo_ms": 2000.0, "slo_objective": 0.9}
  ]
}
EOF

python -m repro.cli serve --no-http --clock virtual --duration "$DURATION" \
    --tenants "$SPEC" --seed 7 \
    --saturation 60 --db-size-mb 20 --nodes 2 --max-nodes 4 \
    --interval-seconds 60 --queue-limit 8 \
    --spar "period=12,periods=2,recent=2,horizon=4" \
    --slo "objective=0.95,latency=2000,fast=120,slow=600,burn=2" \
    --debug-bundle "$BUNDLE" | tee "$OUT"

grep -q 'tenants: storefront, wiki, batch' "$OUT" \
    || { echo "composite workload did not list all three tenants" >&2; exit 1; }
# The batch tenant offers 12 req/s against an 8 req/s bucket: its quota
# must have shed load, or tenancy enforcement is broken.
QUOTA_SHED=$(batch_quota_shed "$OUT")
[ "${QUOTA_SHED:-0}" -gt 0 ] \
    || { echo "quota-capped tenant never hit its token bucket" >&2; exit 1; }
assert_conserved "engine leg" "$OUT"

[ -f "$BUNDLE/MANIFEST.json" ] || { echo "no debug bundle at $BUNDLE" >&2; exit 1; }
python -c "from repro.telemetry.bundle import verify_bundle; verify_bundle('$BUNDLE')" \
    || { echo "bundle manifest failed verification" >&2; exit 1; }
EXPLAIN=$(python -m repro.cli explain "$BUNDLE")
echo "$EXPLAIN"
echo "$EXPLAIN" | grep -q 'Serving by tenant' \
    || { echo "explain is missing the per-tenant serving table" >&2; exit 1; }

# Edge leg: the same command with --workers.  Fixed allocation behind
# the edge, so the quota is the only policy that can shed differently.
python -m repro.cli serve --no-http --clock virtual --duration "$DURATION" \
    --tenants "$SPEC" --seed 7 \
    --workers 2 --transport pipe --control none \
    --saturation 60 --db-size-mb 20 --nodes 1 --max-nodes 2 --queue-limit 8 \
    --telemetry "$EDGE_METRICS" | tee "$EDGE_OUT"
assert_conserved "edge leg" "$EDGE_OUT"
EDGE_QUOTA_SHED=$(batch_quota_shed "$EDGE_OUT")
[ "${EDGE_QUOTA_SHED:-none}" = "$QUOTA_SHED" ] \
    || { echo "batch quota shed at the edge (${EDGE_QUOTA_SHED:-none}) is not the" \
              "single engine's ($QUOTA_SHED): the policy chain forked" >&2; exit 1; }
# ... and the edge counts it in telemetry as an engine would.
EDGE_COUNTER=$(python -c "
import sys
from repro.telemetry.export import read_jsonl
print(int(read_jsonl(sys.argv[1]).counters.get('serve.tenant.quota_shed{tenant=\"batch\"}', -1)))
" "$EDGE_METRICS")
[ "$EDGE_COUNTER" = "$QUOTA_SHED" ] \
    || { echo "the edge's serve.tenant.quota_shed{tenant=\"batch\"} counter ($EDGE_COUNTER)" \
              "is not the $QUOTA_SHED quota sheds both legs printed" >&2; exit 1; }
echo "tenant smoke passed: 3 tenants, quota enforced, conservation exact," \
     "engine and edge agree on $QUOTA_SHED quota sheds"
