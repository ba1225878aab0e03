"""The row pool: slicing, inline paths, failure order, nesting, fork.

:func:`forced_split` makes every batch layer take its multi-slice path
on any machine (three workers, one- or two-row slices), so the layers'
bit-identity tests can compare a split run against a single-slice one.
"""

import contextlib
import multiprocessing
import sys
import threading
import time

import pytest

from repro.core import classify, estimator, rowpool
from repro.core.rowpool import map_rows
from repro.probing import RoundSchedule
from repro.simulation import WorldConfig, fastsim, generate_world
from repro.simulation.fastsim import measure_world


@contextlib.contextmanager
def forced_split(workers=3, tile=2):
    """Run the batch layers on ``workers`` threads in ``tile``-row slices."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rowpool, "_workers", workers)
        patch.setattr(fastsim, "_ROW_TILE", tile)
        patch.setattr(classify, "_CLASSIFY_TILE", tile)
        patch.setattr(estimator, "_MIN_SLICE_ROWS", 1)
        yield


@contextlib.contextmanager
def single_slice():
    """Run the batch layers as one inline call per layer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rowpool, "_workers", 1)
        yield


def test_worker_count_follows_the_affinity_mask():
    assert rowpool.worker_count() == rowpool._affinity_cpus() >= 1


@pytest.mark.parametrize("n_rows, tile", [(7, 2), (6, 2), (5, 1), (3, 3), (9, 4)])
def test_slices_cover_every_row_once(n_rows, tile):
    seen = []
    threads = set()

    def fn(rows):
        seen.append((rows.start, rows.stop))
        threads.add(threading.get_ident())

    with forced_split():
        map_rows(fn, n_rows, tile)
    expected = [(i, min(i + tile, n_rows)) for i in range(0, n_rows, tile)]
    assert sorted(seen) == expected
    assert len(threads) <= 3


@pytest.mark.parametrize("workers, n_rows, tile", [(1, 9, 2), (3, 2, 2), (3, 0, 2), (3, 1, 4)])
def test_one_worker_or_one_tile_runs_inline(workers, n_rows, tile):
    calls = []

    def fn(rows):
        calls.append((rows, threading.get_ident()))

    with forced_split(workers=workers):
        map_rows(fn, n_rows, tile)
    assert calls == [(slice(0, n_rows), threading.get_ident())]


@pytest.mark.watchdog(60)
def test_stress_each_tile_handed_out_once():
    counts = [0] * 5000

    def fn(rows):
        for i in range(rows.start, rows.stop):
            counts[i] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_split(workers=6):
            for _ in range(5):
                map_rows(fn, len(counts), 3)
    finally:
        sys.setswitchinterval(interval)
    assert counts == [5] * len(counts)


@pytest.mark.watchdog(60)
def test_first_failing_slice_in_row_order_is_raised():
    started = threading.Event()

    def fn(rows):
        if rows.start == 4:
            started.set()
            raise KeyError(rows.start)
        if rows.start == 2:
            # Fail after the later slice has already failed.
            started.wait(10)
            raise IndexError(rows.start)

    with forced_split(), pytest.raises(IndexError, match="2"):
        map_rows(fn, 8, 2)


@pytest.mark.watchdog(60)
def test_no_slice_starts_after_a_failure():
    started = []

    def fn(rows):
        started.append(rows.start)
        if rows.start == 0:
            raise ValueError("first")
        time.sleep(0.002)

    with forced_split(workers=2), pytest.raises(ValueError, match="first"):
        map_rows(fn, 200, 1)
    assert len(started) < 200


@pytest.mark.watchdog(60)
def test_nested_call_from_a_pool_thread_completes():
    seen = []

    def inner(rows):
        seen.append(rows.start)

    def outer(rows):
        map_rows(inner, 4, 1)

    with forced_split(workers=2):
        map_rows(outer, 4, 1)
    assert sorted(seen) == sorted(list(range(4)) * 4)


def _measure_in_child(world, schedule, send):
    labels = measure_world(world, schedule, chunk_size=16).labels
    threads = set()

    def fn(rows):
        threads.add(threading.get_ident())
        time.sleep(0.02)

    map_rows(fn, 8, 1)
    send.send((labels.tobytes(), len(threads)))


@pytest.mark.watchdog(120)
def test_forked_child_measures_after_the_parent_used_the_pool():
    world = generate_world(WorldConfig(n_blocks=40, seed=3))
    schedule = RoundSchedule.for_days(3)
    context = multiprocessing.get_context("fork")
    with forced_split(workers=2):
        parent = measure_world(world, schedule, chunk_size=16).labels
        assert rowpool._pool is not None
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_measure_in_child, args=(world, schedule, send))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "forked child hung in measure_world"
            labels, n_threads = receive.recv()
            child.join(10)
        finally:
            if child.is_alive():
                child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert labels == parent.tobytes()
    # The child built a pool of its own rather than queueing on the
    # parent's, whose threads it did not inherit.
    assert n_threads == 2
