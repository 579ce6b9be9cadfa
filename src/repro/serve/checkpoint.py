"""Digest-verified checkpoints of the live serving state.

A serving process that crashes loses its online control loop: the SPAR
fit, the window buffers feeding it, and the policy's scale-in votes all
live in memory.  A checkpoint snapshots that state — plus the engine's
deterministic serving state (RNG, backlog, topology, counters) and the
loadgen cursor — into a single JSON document with a sha256 digest over
the canonical payload, so a truncated or hand-edited snapshot fails
loudly instead of resuming subtly wrong.  This module is the file
format; the session decides when to write one and each engine supplies
its own section (``state_dict()``).

Checkpoints are only taken at *quiescent* tick boundaries: no migration
in flight, no admitted-but-unresolved requests, no scheduled retries and
no unresolved fault activity (and, for a fleet, every worker alive).  At
such a point the full serving state is a plain value, which is what
makes the restore **bit-identical**: a run resumed from a checkpoint
produces exactly the byte-for-byte summary an uninterrupted run would
(the e2e tests assert list equality of every sampled latency).

Format (``repro-serve-checkpoint/1``), one for every front end::

    {"format": "repro-serve-checkpoint/1",
     "sha256": "<hex digest of canonical state JSON>",
     "state": {"clock_now": ..., "ran_s": ...,
               "engine": {config fingerprint, rng, backlog, topology,
                          monitor, counters, health/breakers, router view},
               "control": {online predictor + SPAR coefficients + policy},
               "loadgen": {cursor, report},
               "client": {retry RNG}}}

A :class:`~repro.serve.edge.Fleet` writes its ``engine`` section as
``{"edge": {worker count, tick, rng, breakers, SLO, tenancy, advertised
capacity}, "workers": [one {"engine", "control"} pair per worker]}``
and no ``control``; either engine refuses the other's section.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict

from repro.errors import CheckpointError, ConfigurationError

CHECKPOINT_FORMAT = "repro-serve-checkpoint/1"


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a serving session snapshots itself.

    Attributes:
        path: Snapshot file (atomically replaced on each write).
        every_s: Cadence in engine seconds; a due checkpoint that finds
            the session non-quiescent is deferred to the next tick.
    """

    path: str
    every_s: float = 600.0

    def __post_init__(self) -> None:
        if not self.path:
            raise ConfigurationError("checkpoint path must be non-empty")
        if self.every_s <= 0:
            raise ConfigurationError("checkpoint every_s must be positive")


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def _digest(state: Dict[str, object]) -> str:
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_checkpoint(path: str, state: Dict[str, object]) -> str:
    """Write a digest-verified snapshot atomically; returns the digest."""
    digest = _digest(state)
    document = {"format": CHECKPOINT_FORMAT, "sha256": digest, "state": state}
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    os.replace(tmp_path, path)
    return digest


def read_checkpoint(path: str) -> Dict[str, object]:
    """Read and verify a snapshot; returns the ``state`` payload."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(document, dict) or document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has unknown format "
            f"{document.get('format') if isinstance(document, dict) else None!r}; "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    state = document.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"checkpoint {path} is missing its state payload")
    digest = _digest(state)
    if digest != document.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path} failed digest verification "
            f"(expected {document.get('sha256')}, computed {digest})"
        )
    return state
