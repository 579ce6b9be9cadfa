"""``repro top`` — the operator view of a live server, in a terminal.

One ``GET /view`` per frame (:meth:`repro.serve.http.ServeApp.view`, the
document ``/dashboard`` renders too) becomes a compact screen: overall
status, machine-hours and $-cost so far, SLO burn, sparklines of the
view's series, per-node breaker states, per-tenant offered/served/shed
rates and SLO burn, and the wall-clock perf stage table.  Pure stdlib
(``urllib``), read-only, and safe against a virtual-clock run: the view
is built in one piece on the server.

``--once`` renders a single frame and exits (the CI smoke mode);
otherwise the screen refreshes every ``--interval`` seconds until
interrupted.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.viz import sparkline

#: Points of each series a sparkline shows (the most recent).
_SPARK_POINTS = 32


def _fmt(value: float) -> str:
    return f"{value:.3g}" if abs(value) < 100 else f"{value:.0f}"


def render_frame(view: Dict[str, Any]) -> str:
    """Render one ``repro top`` screen from a ``GET /view`` document."""
    health = view["health"]
    lines: List[str] = []
    now = float(health.get("now", 0.0))
    header = (
        f"repro top — status {health.get('status')} | t={now:g}s | "
        f"machines {health.get('machines')} | "
        f"machine-hours {_fmt(float(health.get('machine_hours', 0.0)))}"
    )
    if "cost_dollars" in health:
        header += f" | ${float(health['cost_dollars']):.2f}"
    lines.append(header)
    lines.append(
        f"accepted {health.get('accepted')} | rejected "
        f"{health.get('rejected')} | completed {health.get('completed')} | "
        f"peak node queue {health.get('max_node_queue_seconds')}s"
    )

    slo = health.get("slo")
    if isinstance(slo, dict):
        lines.append(
            f"SLO: good {100 * float(slo['good_fraction']):.2f}% | burn "
            f"fast/slow {float(slo['fast_burn']):.2f}/"
            f"{float(slo['slow_burn']):.2f}"
            + (" FIRING" if slo.get("alerting") else "")
        )

    series = view.get("series") or {}
    for name, values in sorted(series.items()):
        if values:
            lines.append(
                f"{name}: {sparkline(values[-_SPARK_POINTS:])} (last {_fmt(values[-1])})"
            )

    breakers = health.get("breakers")
    if isinstance(breakers, dict) and breakers:
        states = " ".join(
            f"{node}:{state}" for node, state in sorted(
                breakers.items(), key=lambda kv: int(kv[0])
            )
        )
        lines.append(f"breakers: {states}")

    tenants = view.get("tenants") or {}
    if tenants:
        lines.append(
            f"{'tenant':<12} {'offered/s':>10} {'served/s':>10} "
            f"{'shed/s':>10} {'burn f/s':>12} {'alert':>6}"
        )
        horizon = max(now, 1e-9)
        for name in sorted(tenants):
            bucket = tenants[name]
            shed = float(bucket.get("quota_shed", 0)) + float(bucket.get("brownout_shed", 0))
            tenant_slo = bucket.get("slo") or {}
            burn = (
                f"{float(tenant_slo.get('fast_burn', 0.0)):.2f}/"
                f"{float(tenant_slo.get('slow_burn', 0.0)):.2f}"
            )
            lines.append(
                f"{name:<12} {float(bucket.get('offered', 0)) / horizon:>10.3f} "
                f"{float(bucket.get('served', 0)) / horizon:>10.3f} "
                f"{shed / horizon:>10.3f} {burn:>12} "
                f"{'FIRE' if tenant_slo.get('alerting') else 'ok':>6}"
            )

    perf = view.get("perf") or {}
    stages = perf.get("stages") or []
    if stages:
        lines.append(
            f"{'perf stage':<20} {'count':>8} {'mean ms':>9} "
            f"{'p50 ms':>9} {'p99 ms':>9}"
        )
        for row in stages:
            lines.append(
                f"{row['name']:<20} {row['count']:>8.0f} "
                f"{row['mean_ms']:>9.3f} {row['p50_ms']:>9.3f} "
                f"{row['p99_ms']:>9.3f}"
            )
        lines.append(f"perf overhead: {perf['overhead_ms']:.3f} ms")
    return "\n".join(lines)


def poll_frame(url: str, spark_series: Optional[List[str]] = None) -> str:
    """One ``GET /view`` of a serving endpoint, rendered as a frame."""
    target = f"{url.rstrip('/')}/view"
    if spark_series:
        target += "?series=" + ",".join(urllib.parse.quote(name) for name in spark_series)
    try:
        with urllib.request.urlopen(target, timeout=5.0) as response:
            body = response.read()
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot reach {target}: {exc}") from exc
    try:
        view = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{target} returned non-JSON: {exc}") from exc
    return render_frame(view)


def run_top(
    url: str,
    *,
    once: bool = False,
    interval_s: float = 2.0,
    spark_series: Optional[List[str]] = None,
) -> int:
    """Drive the ``repro top`` loop; returns a process exit code."""
    while True:
        frame = poll_frame(url, spark_series=spark_series)
        if once:
            print(frame)
            return 0
        # Clear + home, then the frame — a cheap full-screen refresh.
        print("\x1b[2J\x1b[H" + frame, flush=True)
        try:
            time.sleep(max(interval_s, 0.1))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
