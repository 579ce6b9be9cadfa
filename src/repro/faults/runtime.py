"""Process-wide default fault plan (the ``--faults`` CLI hook).

Experiments construct their own :class:`~repro.engine.simulator.
EngineSimulator` instances internally, so a CLI flag cannot thread a
fault plan through every ``run()`` signature.  Instead the CLI installs
a default plan here; every simulator created without an explicit
injector picks it up (each gets its *own* fresh
:class:`~repro.faults.injector.FaultInjector`, so parallel runs in one
experiment do not share cursors).

With no default installed (the normal case) this module is inert and
simulators run fault-free.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

_default_plan: Optional[FaultPlan] = None


def new_default_injector() -> Optional[FaultInjector]:
    """A fresh injector over the default plan, or ``None`` if unset."""
    if _default_plan is None:
        return None
    return FaultInjector(_default_plan)


@contextmanager
def fault_plan_session(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scoped default-plan install; the *previous* default is restored on
    exit (not clobbered to ``None``), so back-to-back CLI invocations in
    one process compose deterministically."""
    global _default_plan
    previous = _default_plan
    _default_plan = plan if plan else None
    try:
        yield plan
    finally:
        _default_plan = previous
