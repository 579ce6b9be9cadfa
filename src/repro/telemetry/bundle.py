"""Debug bundles: one directory with everything needed to explain a run.

``repro serve --debug-bundle out/`` (and ``repro run``) export, at the
end of the run, a self-contained directory::

    out/
      MANIFEST.json     file list with sizes and sha256 digests
      config.json       the resolved CLI configuration of the run
      telemetry.jsonl   full telemetry dump (ticks, events, spans, metrics)
      metrics.prom      Prometheus text exposition of the final registry
      report.json       run summary (when the command produced one)

The bundle is *reproducible*: no wall-clock timestamps, hostnames or
pids — two runs with the same seeds produce byte-identical bundles, so
a bundle can be diffed against a known-good one and the manifest
digests verify nothing was truncated in transit.  ``repro.cli explain``
accepts either a bundle directory or a bare ``telemetry.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.telemetry.export import render_prometheus, write_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry

PathLike = Union[str, Path]

MANIFEST_NAME = "MANIFEST.json"
TELEMETRY_NAME = "telemetry.jsonl"


def write_debug_bundle(
    telemetry: "Telemetry",
    out_dir: PathLike,
    *,
    config: Optional[Dict[str, object]] = None,
    report: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Export one run's debug bundle; returns the manifest.

    Open spans are finished first (idempotent), so traces in the bundle
    are always complete.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    telemetry.tracer.finish_all()

    write_jsonl(telemetry, out / TELEMETRY_NAME)
    (out / "metrics.prom").write_text(render_prometheus(telemetry.metrics))
    (out / "config.json").write_text(
        json.dumps(config or {}, sort_keys=True, indent=2, default=str) + "\n"
    )
    if report is not None:
        (out / "report.json").write_text(
            json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
        )

    files: Dict[str, Dict[str, object]] = {}
    for path in sorted(out.iterdir()):
        if path.name == MANIFEST_NAME or not path.is_file():
            continue
        data = path.read_bytes()
        files[path.name] = {
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    manifest: Dict[str, object] = {"format": 1, "files": files}
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def resolve_dump_path(path: PathLike) -> Path:
    """Accept a bundle directory or a bare JSONL dump; return the dump.

    A directory must contain ``telemetry.jsonl`` (the bundle layout);
    anything else is passed through as a dump file path.
    """
    target = Path(path)
    if target.is_dir():
        dump = target / TELEMETRY_NAME
        if not dump.exists():
            raise ConfigurationError(
                f"{target} is not a debug bundle (no {TELEMETRY_NAME})"
            )
        return dump
    return target


def verify_bundle(bundle_dir: PathLike) -> Dict[str, object]:
    """Check every manifest digest; returns the manifest.

    Raises :class:`ConfigurationError` on a missing file or a digest
    mismatch (the CI artifact round-trip uses this).
    """
    out = Path(bundle_dir)
    manifest_path = out / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigurationError(f"{out}: no {MANIFEST_NAME}")
    manifest = json.loads(manifest_path.read_text())
    for name, entry in sorted(manifest.get("files", {}).items()):
        path = out / name
        if not path.exists():
            raise ConfigurationError(f"{out}: manifest names missing file {name}")
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise ConfigurationError(f"{out}: digest mismatch for {name}")
    return manifest
