"""Run-summary rendering for exported telemetry (``repro.cli report``).

Takes a JSONL dump produced by ``repro.cli run ... --telemetry out.jsonl``
and answers the questions the paper's evaluation asks of every run:

* how often was the SLA violated, per percentile (Table 2 accounting);
* what did the reconfigurations look like — when did each migration
  start, how long did it run, did it complete or get aborted (Figure 9's
  timing story);
* how good were the forecasts, per window of the run (Section 5's
  feedback loop: MAPE of predicted vs measured interval load);
* what did the run cost in machine-hours (Equation 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.params import PAPER_SLA_MS
from repro.experiments.common import format_table
from repro.telemetry.export import TelemetryDump
from repro.telemetry.slo import violation_seconds

#: Near-zero measured load is excluded from relative error (matches
#: repro.prediction.metrics.mean_relative_error).
_MAPE_FLOOR = 1e-9


@dataclass
class ForecastWindow:
    """Forecast accuracy over one contiguous window of planning intervals."""

    start_t: float
    end_t: float
    samples: int
    mape_pct: float


@dataclass
class RunSummary:
    """Everything ``format_summary`` renders, parse-friendly."""

    ticks: int
    duration_seconds: float
    machine_hours: float
    average_machines: float
    sla_ms: float
    violations: Dict[str, int]
    migration_spans: List[Dict[str, object]]
    forecast_windows: List[ForecastWindow]
    fault_counts: Dict[str, int]
    decisions: int
    counters: Dict[str, float] = field(default_factory=dict)


def _percentile_violations(dump: TelemetryDump) -> Tuple[float, Dict[str, int]]:
    sla_ms = float(dump.meta.get("sla_ms", PAPER_SLA_MS))
    dt = float(dump.meta.get("dt_seconds", 1.0))
    return sla_ms, {
        pct: violation_seconds([tick[f"{pct}_ms"] for tick in dump.ticks], sla_ms, dt)
        for pct in ("p50", "p95", "p99")
    }


def forecast_windows(
    dump: TelemetryDump, window: int = 0
) -> List[ForecastWindow]:
    """Per-window MAPE of the controller's one-interval-ahead forecasts.

    ``window`` is the number of forecast samples per window; 0 picks a
    size that yields at most 12 windows.
    """
    events = dump.events_of("forecast")
    if not events:
        return []
    if window <= 0:
        window = max(1, math.ceil(len(events) / 12))
    out: List[ForecastWindow] = []
    for start in range(0, len(events), window):
        chunk = events[start : start + window]
        errors = [
            abs(float(e["predicted"]) - float(e["actual"])) / float(e["actual"])
            for e in chunk
            if float(e["actual"]) > _MAPE_FLOOR
        ]
        if not errors:
            continue
        out.append(
            ForecastWindow(
                start_t=float(chunk[0]["t"]),
                end_t=float(chunk[-1]["t"]),
                samples=len(errors),
                mape_pct=100.0 * sum(errors) / len(errors),
            )
        )
    return out


def summarize(dump: TelemetryDump, window: int = 0) -> RunSummary:
    sla_ms, violations = _percentile_violations(dump)
    dt = float(dump.meta.get("dt_seconds", 1.0))
    machine_seconds = sum(t["machines"] for t in dump.ticks) * dt
    duration = len(dump.ticks) * dt
    fault_counts: Dict[str, int] = {}
    for event in dump.events_of("fault"):
        name = str(event.get("fault", "unknown"))
        fault_counts[name] = fault_counts.get(name, 0) + 1
    return RunSummary(
        ticks=len(dump.ticks),
        duration_seconds=duration,
        machine_hours=machine_seconds / 3600.0,
        average_machines=(machine_seconds / duration / dt) if duration else 0.0,
        sla_ms=sla_ms,
        violations=violations,
        migration_spans=dump.spans_named("migration"),
        forecast_windows=forecast_windows(dump, window),
        fault_counts=fault_counts,
        decisions=len(dump.events_of("decision")),
        counters=dict(dump.counters),
    )


def format_summary(summary: RunSummary, *, max_spans: int = 40) -> str:
    """Human-readable report (the ``repro.cli report`` output)."""
    sections: List[str] = []

    overview = format_table(
        ("metric", "value"),
        [
            ("ticks recorded", summary.ticks),
            ("run duration", f"{summary.duration_seconds:.0f} s"),
            ("machine-hours", f"{summary.machine_hours:.2f}"),
            ("average machines", f"{summary.average_machines:.2f}"),
            ("controller decisions", summary.decisions),
        ],
        title="Run overview",
    )
    sections.append(overview)

    sections.append(
        format_table(
            ("percentile", f"seconds over {summary.sla_ms:.0f} ms"),
            [(pct, count) for pct, count in sorted(summary.violations.items())],
            title="SLA violations",
        )
    )

    if summary.migration_spans:
        rows = []
        for span in summary.migration_spans[:max_spans]:
            attrs = span.get("attrs") or {}
            end = span.get("end")
            duration = (
                f"{float(end) - float(span['start']):.0f}"
                if end is not None
                else "-"
            )
            rows.append(
                (
                    f"{float(span['start']):.0f}",
                    duration,
                    f"{attrs.get('from', '?')} -> {attrs.get('to', '?')}",
                    f"x{attrs.get('boost', 1.0):g}",
                    span.get("status", "?"),
                )
            )
        title = "Migration spans"
        if len(summary.migration_spans) > max_spans:
            title += f" (first {max_spans} of {len(summary.migration_spans)})"
        sections.append(
            format_table(
                ("start s", "duration s", "move", "rate", "status"), rows, title=title
            )
        )
    else:
        sections.append("Migration spans\n(none recorded)")

    if summary.forecast_windows:
        sections.append(
            format_table(
                ("window start s", "window end s", "samples", "forecast MAPE %"),
                [
                    (f"{w.start_t:.0f}", f"{w.end_t:.0f}", w.samples, f"{w.mape_pct:.1f}")
                    for w in summary.forecast_windows
                ],
                title="Forecast error per window",
            )
        )
    else:
        sections.append("Forecast error per window\n(no forecast events recorded)")

    if summary.fault_counts:
        sections.append(
            format_table(
                ("fault", "count"),
                sorted(summary.fault_counts.items()),
                title="Fault events",
            )
        )

    return "\n\n".join(sections)


def render_report(path: str, window: int = 0) -> str:
    """Read a JSONL dump and render its summary (CLI entry point)."""
    from repro.telemetry.export import read_jsonl

    return format_summary(summarize(read_jsonl(path), window=window))


# ----------------------------------------------------------------------
# Decision-audit explanation (``repro.cli explain``)
# ----------------------------------------------------------------------
def _fmt_rate(value: object) -> str:
    return f"{float(value):.1f}" if value is not None else "-"


def format_explain(dump: TelemetryDump, *, max_details: int = 5) -> str:
    """Explain a run from its audit trail: every planner decision with
    predicted-vs-actual load, the alternatives the DP weighed, SLO
    burn-rate alerts and the per-node shed distribution.

    The predicted/actual join: the ``audit`` event at interval ``i``
    carries the one-ahead prediction for interval ``i + 1``; the
    ``forecast`` event at interval ``i + 1`` scores that prediction
    against the measurement, so each decision row shows what the
    planner believed next to what actually arrived.
    """
    from repro.telemetry.metrics import split_labels, tenant_rows

    sections: List[str] = []
    audits = dump.events_of("audit")
    forecasts = {int(e["interval"]): e for e in dump.events_of("forecast")}

    if audits:
        rows = []
        for event in audits:
            interval = int(event["interval"])
            scored = forecasts.get(interval + 1)
            target = event.get("target")
            rows.append(
                (
                    f"{float(event['t']):.0f}",
                    interval,
                    str(event.get("reason", "?")),
                    _fmt_rate(event.get("measured_rate")),
                    _fmt_rate(event.get("predicted_rate")),
                    _fmt_rate(scored["actual"]) if scored else "-",
                    "hold" if target is None else str(target),
                )
            )
        sections.append(
            format_table(
                (
                    "t s",
                    "interval",
                    "reason",
                    "measured/s",
                    "predicted/s",
                    "actual/s",
                    "action",
                ),
                rows,
                title=f"Planner decisions ({len(audits)} replans audited)",
            )
        )

        details = [
            e
            for e in audits
            if e.get("target") is not None or e.get("reason") == "fallback"
        ][-max_details:]
        for event in details:
            lines = [
                f"Decision detail @ t={float(event['t']):.0f}s "
                f"(interval {int(event['interval'])}, {event.get('reason')})"
            ]
            candidates = event.get("candidates") or []
            if candidates:
                shown = ", ".join(
                    f"{c['machines']}m="
                    + (f"{float(c['cost']):g}" if c.get("cost") is not None else "inf")
                    for c in candidates
                )
                lines.append(f"  candidates (machine-intervals): {shown}")
            for move in event.get("schedule") or []:
                lines.append(f"  schedule: {move}")
            if event.get("rejection"):
                lines.append(f"  runner-up rejected: {event['rejection']}")
            if event.get("machine_hours_delta") is not None:
                lines.append(
                    "  machine-hours saved vs runner-up: "
                    f"{float(event['machine_hours_delta']):.3f}"
                )
            if event.get("infeasible_detail"):
                lines.append(f"  infeasible: {event['infeasible_detail']}")
            for entry in event.get("tenants") or []:
                cost = entry.get("violation_cost")
                runner = entry.get("runner_up_violation_cost")
                lines.append(
                    f"  tenant {entry.get('tenant', '?')}: "
                    f"{float(entry.get('rate', 0.0)):.1f}/s "
                    f"({100.0 * float(entry.get('share', 0.0)):.0f}% share, "
                    f"weight {entry.get('weight', 1)}) "
                    "violation-cost "
                    + (f"{float(cost):g}" if cost is not None else "-")
                    + " vs runner-up "
                    + (f"{float(runner):g}" if runner is not None else "-")
                )
            sections.append("\n".join(lines))
    else:
        sections.append("Planner decisions\n(no audit events recorded)")

    alerts = dump.events_of("slo_alert")
    if alerts:
        labelled = any(e.get("tenant") for e in alerts)
        sections.append(
            format_table(
                ("t s", "tenant", "state", "fast burn", "slow burn", "objective")
                if labelled
                else ("t s", "state", "fast burn", "slow burn", "objective"),
                [
                    (
                        (f"{float(e['t']):.0f}",)
                        + ((str(e.get("tenant", "-") or "-"),) if labelled else ())
                        + (
                            str(e.get("state", "?")),
                            f"{float(e.get('fast_burn', 0.0)):.2f}",
                            f"{float(e.get('slow_burn', 0.0)):.2f}",
                            f"{float(e.get('objective', 0.0)):.3%}",
                        )
                    )
                    for e in alerts
                ],
                title="SLO burn-rate alerts",
            )
        )
    else:
        sections.append("SLO burn-rate alerts\n(none fired)")

    by_tenant = tenant_rows(dump.counters)
    if by_tenant:
        sections.append(
            format_table(
                ("tenant", "offered", "served", "quota shed", "brownout shed"),
                [
                    (
                        tenant,
                        row.get("offered", 0),
                        row.get("served", 0),
                        row.get("quota_shed", 0),
                        row.get("brownout_shed", 0),
                    )
                    for tenant, row in sorted(by_tenant.items())
                ],
                title="Serving by tenant",
            )
        )

    shed_rows = []
    for name, value in sorted(dump.counters.items()):
        base, labels = split_labels(name)
        if base == "serve.admit.shed":
            node = dict(labels).get("node", "?")
            accepted = dump.counters.get(
                f'serve.admit.accepted{{node="{node}"}}', 0.0
            )
            shed_rows.append((node, int(value), int(accepted)))
    if shed_rows:
        sections.append(
            format_table(
                ("node", "shed", "accepted"),
                shed_rows,
                title="Admission by node",
            )
        )

    requests = dump.spans_named("request")
    if requests:
        shed = sum(1 for s in requests if s.get("status") == "shed")
        over_migration = sum(
            1
            for s in requests
            if (s.get("attrs") or {}).get("migration_span") is not None
        )
        sections.append(
            "Request traces\n"
            f"  {len(requests)} traced requests | {shed} shed | "
            f"{over_migration} overlapped a migration"
        )

    return "\n\n".join(sections)


def render_explain(path: str, *, max_details: int = 5) -> str:
    """Read a dump or debug bundle and render its explanation."""
    from repro.telemetry.bundle import resolve_dump_path
    from repro.telemetry.export import read_jsonl

    dump = read_jsonl(resolve_dump_path(path))
    return format_explain(dump, max_details=max_details)
