"""Telemetry exporters: JSONL (full dump) and CSV (tick table).

JSONL is the canonical format: one self-describing record per line
(``kind`` discriminates meta/tick/event/span/counter/gauge/histogram),
append-friendly and diff-friendly; ``read_jsonl(write -> path)``
reconstructs every record.  CSV carries the per-tick timeline only — the
shape spreadsheet/pandas consumers want — with ``repr()``-formatted
floats, so parsing a cell back gives the recorded float exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Union

from repro.errors import ConfigurationError
from repro.telemetry.timeline import TICK_FIELDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry
    from repro.telemetry.metrics import MetricsRegistry

PathLike = Union[str, Path]


class TelemetryDump:
    """Parsed export, grouped by record kind."""

    def __init__(self, records: List[Dict[str, object]]) -> None:
        self.records = records
        self.meta: Dict[str, object] = {}
        self.ticks: List[Dict[str, float]] = []
        self.events: List[Dict[str, object]] = []
        self.spans: List[Dict[str, object]] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, object]] = {}
        for record in records:
            kind = record.get("kind")
            body = {k: v for k, v in record.items() if k != "kind"}
            if kind == "meta":
                self.meta.update(body)
            elif kind == "tick":
                self.ticks.append({k: float(v) for k, v in body.items()})
            elif kind == "event":
                self.events.append(body)
            elif kind == "span":
                self.spans.append(body)
            elif kind == "counter":
                self.counters[str(body["name"])] = float(body["value"])  # type: ignore[arg-type]
            elif kind == "gauge":
                self.gauges[str(body["name"])] = float(body["value"])  # type: ignore[arg-type]
            elif kind == "histogram":
                self.histograms[str(body["name"])] = body
            else:
                raise ConfigurationError(f"unknown telemetry record kind {kind!r}")

    def events_of(self, event_type: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e.get("type") == event_type]

    def spans_named(self, name: str) -> List[Dict[str, object]]:
        return [s for s in self.spans if s.get("name") == name]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(telemetry: "Telemetry", path: PathLike) -> int:
    """Write the full dump; returns the number of records written."""
    records = telemetry.records()
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(path: PathLike) -> TelemetryDump:
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{line_no}: not a JSONL telemetry record: {exc}"
                ) from exc
    return TelemetryDump(records)


# ----------------------------------------------------------------------
# CSV (ticks only)
# ----------------------------------------------------------------------
def write_csv_ticks(telemetry: "Telemetry", path: PathLike) -> int:
    """Write the tick table as CSV; returns the number of rows written."""
    ticks = telemetry.timeline.ticks
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TICK_FIELDS)
        for tick in ticks:
            writer.writerow([repr(tick[field]) for field in TICK_FIELDS])
    return len(ticks)


# ----------------------------------------------------------------------
# Prometheus exposition (the serving layer's /metrics endpoint)
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """Metric names here use dots; Prometheus wants ``[a-zA-Z0-9_:]``."""
    return "repro_" + "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )


def _label_suffix(labels, extra: str = "") -> str:
    """Render ``((key, value), ...)`` (plus an optional pre-formatted
    ``extra`` pair such as ``le="..."``) as a ``{...}`` sample suffix."""
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(metrics: "MetricsRegistry") -> str:
    """Render a metrics registry in Prometheus text exposition format.

    Counters and gauges become single samples; histograms become the
    conventional cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.  Registry names carrying canonical labels (see
    :func:`repro.telemetry.metrics.labeled`) are emitted as real
    ``{node="..."}``-labelled samples of one family — one ``# TYPE``
    line per family, series sorted by label values, so the output stays
    byte-stable across runs.  Traces and the timeline are not exposed
    here — they are run-scoped artifacts, exported via JSONL instead.
    """
    from repro.telemetry.metrics import split_labels

    lines: List[str] = []

    def emit(family_type: str, samples) -> None:
        # samples: (prom base name, labels tuple, [(suffix, value), ...])
        seen_type = None
        for base, labels, series in sorted(samples, key=lambda s: (s[0], s[1])):
            if base != seen_type:
                lines.append(f"# TYPE {base} {family_type}")
                seen_type = base
            for name_suffix, label_extra, value in series:
                suffix = _label_suffix(labels, label_extra)
                lines.append(f"{base}{name_suffix}{suffix} {value}")

    counters = []
    for name, counter in metrics.counters().items():
        base, labels = split_labels(name)
        counters.append(
            (_prom_name(base) + "_total", labels, [("", "", f"{counter.value:g}")])
        )
    emit("counter", counters)

    gauges = []
    for name, gauge in metrics.gauges().items():
        base, labels = split_labels(name)
        gauges.append((_prom_name(base), labels, [("", "", f"{gauge.value:g}")]))
    emit("gauge", gauges)

    histograms = []
    for name, histogram in metrics.histograms().items():
        base, labels = split_labels(name)
        series = []
        cumulative = 0
        for bound, count in zip(histogram.buckets, histogram.counts):
            cumulative += count
            series.append(("_bucket", f'le="{bound:g}"', str(cumulative)))
        series.append(("_bucket", 'le="+Inf"', str(histogram.count)))
        series.append(("_sum", "", f"{histogram.total:g}"))
        series.append(("_count", "", str(histogram.count)))
        histograms.append((_prom_name(base), labels, series))
    emit("histogram", histograms)

    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
def export(telemetry: "Telemetry", path: PathLike) -> int:
    """Suffix-dispatched export: ``.csv`` -> tick table, else JSONL."""
    if str(path).endswith(".csv"):
        return write_csv_ticks(telemetry, path)
    return write_jsonl(telemetry, path)
