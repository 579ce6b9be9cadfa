"""Span-based tracing for migrations, reconfigurations and replans.

The engine runs in *simulated* time, so the tracer never reads a wall
clock: span timestamps are supplied by the instrumented code (the
simulator passes ``sim.now``).  When no timestamp is given, a
deterministic per-tracer sequence number is used instead, which keeps
exports reproducible byte for byte — important for the golden-fixture
tests and for diffing two runs.

Two usage styles:

* stepped code (a migration that starts in one engine step and finishes
  hundreds of steps later) holds the :class:`Span` handle and calls
  :meth:`Span.finish` explicitly;
* scoped code uses ``with tracer.span("plan"):`` — the span closes when
  the block exits, with ``status="error"`` and the exception type
  attached if the block raised.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One traced operation; ``parent_id`` encodes nesting."""

    span_id: int
    name: str
    start: float
    parent_id: Optional[int] = None
    depth: int = 0
    end: Optional[float] = None
    status: str = "open"
    attrs: Dict[str, object] = field(default_factory=dict)
    #: The owning tracer's sequence clock; lets :meth:`finish` close a
    #: stepped span with no timestamp at a time *after* its start.
    clock: Optional[Callable[[], float]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def finish(self, at: Optional[float] = None, status: str = "ok") -> "Span":
        """Close the span (idempotent: a second finish is a no-op).

        With no timestamp the span ends at the tracer's sequence clock
        (clamped to never precede its own start, since spans started on
        the simulated clock sit far ahead of the sequence counter); a
        span created without a tracer falls back to its start.
        """
        if self.closed:
            return self
        if at is None:
            at = self.clock() if self.clock is not None else self.start
        self.end = max(float(at), self.start)
        self.status = status
        return self

    def as_record(self) -> Dict[str, object]:
        return {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Records spans; keeps an explicit stack for nesting."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._seq = 0.0

    def _tick_clock(self) -> float:
        """Advance and return the deterministic sequence clock."""
        self._seq += 1.0
        return self._seq

    def _timestamp(self, at: Optional[float]) -> float:
        if at is not None:
            return float(at)
        return self._tick_clock()

    # ------------------------------------------------------------------
    def begin(self, name: str, at: Optional[float] = None, **attrs: object) -> Span:
        """Open a span and push it on the nesting stack."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            name=name,
            start=self._timestamp(at),
            parent_id=parent.span_id if parent else None,
            depth=len(self._stack),
            attrs=dict(attrs),
            clock=self._tick_clock,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def begin_detached(
        self,
        name: str,
        at: Optional[float] = None,
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        """Open a span with an *explicit* parent, off the nesting stack.

        Request tracing needs this: hundreds of request spans are open
        at once and interleave freely with the stepped migration span,
        so stack-based nesting would attach them to whatever happens to
        be in flight.  Detached spans are closed with
        :meth:`Span.finish`; :meth:`end` and the stack never see them.
        """
        span = Span(
            span_id=self._next_id,
            name=name,
            start=self._timestamp(at),
            parent_id=parent.span_id if parent is not None else None,
            depth=parent.depth + 1 if parent is not None else 0,
            attrs=dict(attrs),
            clock=self._tick_clock,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, at: Optional[float] = None, status: str = "ok") -> Span:
        """Close a span; pops it (and any unclosed children) off the stack."""
        ts = self._timestamp(at)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            # A child left open by stepped code closes with its parent;
            # its end never precedes its own start (mixed clocks).
            top.finish(max(ts, top.start), status="abandoned")
        return span.finish(ts, status=status)

    @contextmanager
    def span(
        self, name: str, at: Optional[float] = None, **attrs: object
    ) -> Iterator[Span]:
        """Scoped span; closes on block exit, ``status="error"`` on raise."""
        opened = self.begin(name, at=at, **attrs)
        try:
            yield opened
        except BaseException as exc:
            opened.attrs.setdefault("error", type(exc).__name__)
            self.end(opened, status="error")
            raise
        else:
            self.end(opened)

    # ------------------------------------------------------------------
    def finish_all(self, at: Optional[float] = None) -> None:
        """Close every span still open (end of run / aborted run).  With
        no timestamp each span ends at the sequence clock, clamped to its
        own start — a simulated-time span the tracer cannot date reports
        zero duration rather than a mixed-clock one."""
        while self._stack:
            top = self._stack.pop()
            top.finish(max(at, top.start) if at is not None else None,
                       status="abandoned")
        for span in self.spans:
            if not span.closed:  # detached request spans
                span.finish(
                    max(at, span.start) if at is not None else None,
                    status="abandoned",
                )

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def records(self) -> List[Dict[str, object]]:
        return [s.as_record() for s in self.spans]
