"""Process-wide default telemetry (the ``--telemetry`` CLI hook).

Mirrors :mod:`repro.faults.runtime`: experiments construct simulators
internally, so the CLI cannot thread a telemetry handle through every
``run()`` signature.  Instead it installs a default here; every
instrumented component created without an explicit handle picks it up.

With no default installed (the normal case) :func:`active_telemetry`
returns ``None`` and every instrumentation site reduces to a single
``is not None`` check — the zero-overhead-when-disabled contract the
engine's fast path relies on.

:func:`telemetry_session` saves and *restores* the previous default, so
nested or back-to-back in-process invocations (the CLI bugfix of PR 3)
never leak state into each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.telemetry import Telemetry

_default: "Optional[Telemetry]" = None


def active_telemetry() -> "Optional[Telemetry]":
    """The default telemetry if one is installed *and* enabled."""
    if _default is not None and _default.enabled:
        return _default
    return None


@contextmanager
def telemetry_session(telemetry: "Optional[Telemetry]") -> "Iterator[Optional[Telemetry]]":
    """Scoped default install; the previous default is restored on exit."""
    global _default
    previous = _default
    _default = telemetry
    try:
        yield telemetry
    finally:
        _default = previous
