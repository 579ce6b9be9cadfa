"""Process-parallel sharding of independent experiment runs.

Ablation cells, per-seed fault replays and workload-grid points are
embarrassingly parallel: each builds its own controller/simulator state
from pickled inputs and returns a plain result object.  This module
shards such grids across a :class:`~concurrent.futures.ProcessPoolExecutor`
with a deterministic merge — results come back in submission order, so
``parallel_map(fn, items, max_workers=w)`` returns exactly what
``[fn(item) for item in items]`` would, for every ``w`` (the contract
tests/test_parallel.py locks in).

Worker semantics (see docs/PERFORMANCE.md):

* ``fn`` and every item must be picklable — use module-level functions
  and plain data/dataclass arguments, never closures or lambdas.
* ``max_workers <= 1`` (or a single item) runs serially in-process:
  no pool, no pickling, identical results.  This is the default, so
  parallelism is always an explicit opt-in.
* Exceptions propagate: the first failing item raises in the parent
  (in item order, matching the serial loop) and cancels the pool.
* Worker *death* (OOM kill, segfault, interpreter abort) poisons the
  whole pool with an uninformative ``BrokenProcessPool``; the map
  retries the work once serially in-process, which either succeeds
  (the death was environmental) or converts the poison into a
  :class:`~repro.errors.ParallelExecutionError` naming the failing cell.
* Determinism is the *caller's* job per item: workers must not share
  mutable state or draw from a global RNG.  Seed each item explicitly
  (carry the seed in the item).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.errors import ParallelExecutionError

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    max_workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Args:
        fn: Module-level callable applied to each item.
        items: The work grid; materialized up front.
        max_workers: Process count.  ``None`` or ``<= 1`` runs serially.

    Returns:
        ``[fn(item) for item in items]`` — same values, same order,
        regardless of worker count.
    """
    work = list(items)
    if max_workers is None or max_workers <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    try:
        with ProcessPoolExecutor(max_workers=min(max_workers, len(work))) as pool:
            futures = [pool.submit(fn, item) for item in work]
            try:
                # Collect in submission order, which makes the merge
                # deterministic and re-raises the first failure in order.
                return [future.result() for future in futures]
            except BrokenProcessPool:
                raise
            except Exception:
                for future in futures:
                    future.cancel()
                raise
    except BrokenProcessPool:
        pass
    # A worker died (OOM kill, segfault): every future is poisoned with
    # the same unhelpful error.  Retry serially in-process — either the
    # death was environmental and the results are fine, or the bad cell
    # fails again here with its real traceback and a name.
    results: List[R] = []
    for index, item in enumerate(work):
        try:
            results.append(fn(item))
        except Exception as exc:
            raise ParallelExecutionError(
                f"worker pool died and cell {index} ({item!r}) failed the "
                f"in-process retry too: {exc}"
            ) from exc
    return results
