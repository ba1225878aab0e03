"""A process-wide thread pool for row-independent batch work.

The batch layers (world synthesis, count drawing, the EWMA estimators,
FFT classification) do the same numpy/scipy work on every row of a
``(blocks, rounds)`` array, and that work releases the GIL.
:func:`map_rows` cuts the rows into disjoint slices and runs them on
every CPU in the affinity mask, the calling thread included.  Each row
is computed by the same operations whichever slice holds it, so callers
that keep their random draws on the calling thread get results
bit-identical to one call over all rows.

The pool is created on first use and dropped in a forked child: the
child inherits the executor object but none of its threads, so work
submitted there would wait forever.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

__all__ = ["map_rows", "worker_count"]


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has an affinity mask
        return os.cpu_count() or 1


_workers = _affinity_cpus()
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def worker_count() -> int:
    """Threads :func:`map_rows` runs slices on, the caller included."""
    return _workers


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(_workers - 1, 1), thread_name_prefix="rowpool"
            )
        return _pool


def map_rows(fn: Callable[[slice], None], n_rows: int, tile: int) -> None:
    """Call ``fn(rows)`` on disjoint slices of ``tile`` rows covering ``n_rows``.

    Slices are handed out in row order to the pool's threads and the
    calling thread; ``fn`` writes its results in place.  With one worker,
    or no more than ``tile`` rows, ``fn`` is called once inline on every
    row.  If slices fail, no new slice starts, and the exception of the
    first failing slice in row order is raised once all running slices
    have finished.
    """
    n_tiles = -(-n_rows // tile)
    helpers = min(_workers, n_tiles) - 1
    if helpers <= 0:
        fn(slice(0, n_rows))
        return
    next_tile = itertools.count().__next__
    failures: dict[int, BaseException] = {}

    def drain() -> None:
        # Tiles leave the counter in order, so every tile before a
        # failing one has started and will report its own failure.
        while not failures:
            i = next_tile()
            if i >= n_tiles:
                return
            try:
                fn(slice(i * tile, min((i + 1) * tile, n_rows)))
            except BaseException as exc:  # re-raised below, in the caller
                failures[i] = exc

    pool = _executor()
    helper_runs = [pool.submit(drain) for _ in range(helpers)]
    drain()
    for run in helper_runs:
        # A helper still queued (behind another caller's work) has
        # nothing left to do; waiting for it could deadlock a caller
        # running on a pool thread.
        if not run.cancel():
            run.result()
    if failures:
        raise failures[min(failures)]
