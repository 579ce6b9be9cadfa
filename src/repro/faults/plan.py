"""Deterministic fault plans for chaos experiments.

A :class:`FaultPlan` is an immutable, time-ordered schedule of
infrastructure faults to inject into an engine run:

* **node crash** — a machine disappears; its buckets are emergency
  re-routed to the survivors; it may come back later as a spare;
* **straggler** — a machine's service capacity degrades by a factor for
  a window (a slow disk, a noisy neighbour);
* **transfer failure** — the chunk a Squall transfer is shipping is
  lost and must be retried (with capped exponential backoff);
* **migration stall** — an in-flight transfer stops making progress for
  a window before being re-enqueued.

Plans are either written explicitly, parsed from a compact CLI spec
(:func:`parse_fault_spec`), or generated from a seeded numpy
``Generator`` (:meth:`FaultPlan.generate`) so any chaos run is exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, FaultInjectionError
from repro.fields import FieldTable, parse_fields


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something bad happens ``at_seconds`` into the run."""

    at_seconds: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.at_seconds) or self.at_seconds < 0:
            raise FaultInjectionError(
                f"fault time must be finite and >= 0, got {self.at_seconds}"
            )


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Node ``node_id`` fails; optionally recovers (as an empty spare)
    ``recover_after_seconds`` later."""

    node_id: int = 0
    recover_after_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node_id < 0:
            raise FaultInjectionError("node_id must be >= 0")
        if self.recover_after_seconds is not None and self.recover_after_seconds <= 0:
            raise FaultInjectionError("recover_after_seconds must be > 0")


@dataclass(frozen=True)
class NodeStraggler(FaultEvent):
    """Node ``node_id`` serves at ``factor`` of its capacity for
    ``duration_seconds``."""

    node_id: int = 0
    factor: float = 0.5
    duration_seconds: float = 60.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node_id < 0:
            raise FaultInjectionError("node_id must be >= 0")
        if not 0 < self.factor < 1:
            raise FaultInjectionError("straggler factor must be in (0, 1)")
        if self.duration_seconds <= 0:
            raise FaultInjectionError("duration_seconds must be > 0")


@dataclass(frozen=True)
class TransferFailure(FaultEvent):
    """The in-flight migration loses ``count`` consecutive chunks.

    Each lost chunk is retried after a capped exponential backoff; a
    streak longer than ``MigrationConfig.max_retries`` fails the
    migration permanently.  A no-op if no migration is in flight.
    """

    count: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count < 1:
            raise FaultInjectionError("count must be >= 1")


@dataclass(frozen=True)
class MigrationStall(FaultEvent):
    """The in-flight migration makes no progress for ``duration_seconds``
    before its transfers are re-enqueued.  A no-op if none is in flight."""

    duration_seconds: float = 30.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.duration_seconds <= 0:
            raise FaultInjectionError("duration_seconds must be > 0")


class FaultPlan:
    """An immutable, time-sorted sequence of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.at_seconds)
        )

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls(())

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.events)!r})"

    def counts(self) -> dict:
        """Events per kind — the reference the chaos report asserts
        :class:`~repro.faults.injector.FaultStats` against."""
        out = {"crashes": 0, "stragglers": 0, "transfer_failures": 0, "stalls": 0}
        for event in self.events:
            if isinstance(event, NodeCrash):
                out["crashes"] += 1
            elif isinstance(event, NodeStraggler):
                out["stragglers"] += 1
            elif isinstance(event, TransferFailure):
                out["transfer_failures"] += 1
            elif isinstance(event, MigrationStall):
                out["stalls"] += 1
        return out

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        duration_seconds: float,
        *,
        num_nodes: int = 10,
        crashes: int = 1,
        stragglers: int = 1,
        transfer_failures: int = 2,
        stalls: int = 1,
        crash_recovery_seconds: Optional[float] = 600.0,
        straggler_factor: float = 0.5,
        straggler_seconds: float = 120.0,
        stall_seconds: float = 30.0,
    ) -> "FaultPlan":
        """A reproducible random plan from a seeded numpy ``Generator``.

        Fault times are drawn uniformly over the middle 80% of the run
        (so warm-up and tail are clean); crashed/straggling node ids are
        drawn from ``[0, num_nodes)``.  The same seed always yields the
        same plan.
        """
        if duration_seconds <= 0:
            raise FaultInjectionError("duration_seconds must be > 0")
        if num_nodes < 2:
            raise FaultInjectionError("need >= 2 nodes to crash one safely")
        rng = np.random.default_rng(seed)
        lo, hi = 0.1 * duration_seconds, 0.9 * duration_seconds

        def times(n: int) -> List[float]:
            return sorted(float(t) for t in rng.uniform(lo, hi, size=n))

        events: List[FaultEvent] = []
        for t in times(crashes):
            events.append(
                NodeCrash(
                    at_seconds=t,
                    node_id=int(rng.integers(0, num_nodes)),
                    recover_after_seconds=crash_recovery_seconds,
                )
            )
        for t in times(stragglers):
            events.append(
                NodeStraggler(
                    at_seconds=t,
                    node_id=int(rng.integers(0, num_nodes)),
                    factor=straggler_factor,
                    duration_seconds=straggler_seconds,
                )
            )
        for t in times(transfer_failures):
            events.append(TransferFailure(at_seconds=t))
        for t in times(stalls):
            events.append(MigrationStall(at_seconds=t, duration_seconds=stall_seconds))
        return cls(events)


def _split_fields(entry: str) -> Tuple[str, float, List[str]]:
    """``kind@T:opt:opt`` -> (kind, T, [opt, ...])."""
    head, _, rest = entry.partition(":")
    if "@" not in head:
        raise FaultInjectionError(
            f"bad fault entry {entry!r}: expected kind@seconds[:options]"
        )
    kind, _, at = head.partition("@")
    try:
        at_seconds = float(at)
    except ValueError:
        raise FaultInjectionError(f"bad fault time {at!r} in {entry!r}") from None
    options = [f for f in rest.split(":") if f] if rest else []
    return kind.strip().lower(), at_seconds, options


_NODE: FieldTable = {"n": ("node_id", int)}

#: Per ``--faults`` kind: the event it builds (``None``: a generated
#: plan), the :func:`~repro.fields.parse_fields` table of its options and
#: the ones it cannot do without.
_FAULT_KINDS: Dict[str, Tuple[Optional[type], FieldTable, Tuple[str, ...]]] = {
    "crash": (NodeCrash, {**_NODE, "recover": ("recover_after_seconds", float)}, ("n",)),
    "straggle": (
        NodeStraggler,
        {**_NODE, "x": ("factor", float), "for": ("duration_seconds", float)},
        ("n",),
    ),
    "xfail": (TransferFailure, {"count": ("count", int)}, ()),
    "stall": (MigrationStall, {"for": ("duration_seconds", float)}, ()),
    "gen": (
        None,
        {
            "seed": ("seed", int), "span": ("duration_seconds", float),
            "crashes": ("crashes", int), "stragglers": ("stragglers", int),
            "xfails": ("transfer_failures", int), "stalls": ("stalls", int),
            "nodes": ("num_nodes", int),
        },
        ("seed", "span"),
    ),
}


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the compact ``--faults`` CLI syntax into a plan.

    Comma-separated entries, each ``kind@seconds[:options]``:

    * ``crash@T:nN[:recover=D]`` — crash node ``N`` at ``T`` s, recover
      ``D`` s later;
    * ``straggle@T:nN[:x=F][:for=D]`` — node ``N`` at capacity factor
      ``F`` (default 0.5) for ``D`` s (default 60);
    * ``xfail@T[:count=K]`` — ``K`` consecutive chunk failures;
    * ``stall@T[:for=D]`` — migration stalled for ``D`` s (default 30);
    * ``gen@0:seed=S:span=SECONDS[...]`` — a whole generated plan
      (optional ``crashes=``, ``stragglers=``, ``xfails=``, ``stalls=``,
      ``nodes=``).

    Options are ``key=value`` tokens of :func:`repro.fields.parse_fields`
    (a bare ``nN`` is ``n=N``); a key the kind does not know, a value
    that does not parse or a missing node raises
    :class:`~repro.errors.FaultInjectionError`.

    Example: ``crash@1200:n3:recover=600,straggle@2000:n1:x=0.4:for=90``.
    """
    events: List[FaultEvent] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        kind, at_seconds, options = _split_fields(entry)
        kind = "straggle" if kind == "straggler" else kind
        if kind not in _FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {kind!r} in {entry!r}; known: "
                "crash, straggle, xfail, stall, gen"
            )
        event, fields, needed = _FAULT_KINDS[kind]
        if "n" in fields:  # a bare ``nN`` names the node, as ``n=N`` does
            options = [f"n={o[1:]}" if o.startswith("n") and "=" not in o else o for o in options]
        try:
            values = parse_fields(f"--faults entry {entry!r}", ",".join(options), fields)
        except ConfigurationError as exc:
            raise FaultInjectionError(str(exc)) from None
        missing = [key for key in needed if fields[key][0] not in values]
        if missing:
            raise FaultInjectionError(
                f"{kind} entry {entry!r} needs " + " and ".join(f"{key}=" for key in missing)
            )
        if event is None:
            events.extend(FaultPlan.generate(**values).events)  # type: ignore[arg-type]
        else:
            events.append(event(at_seconds=at_seconds, **values))
    return FaultPlan(events)
