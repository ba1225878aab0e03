"""Timing wrappers around the public callables of each layer.

Nothing under ``src/`` knows it is being measured: :func:`install_service`
replaces public methods on their classes with wrappers that record into
the per-process :data:`RECORDER`, and :func:`install_batch` does the
same for the functions ``repro.simulation.fastsim`` calls.  Forked shard
workers inherit the wrappers and start with an empty recorder.

Granularity follows the cost of the call being timed:

* request- and RPC-level calls record one span each
  (``[name, start, end, thread, attr]`` in ``perf_counter`` seconds,
  which is CLOCK_MONOTONIC and so comparable across processes);
* per-observation calls (``StreamEngine.ingest``,
  ``AdmissionController.submit``) add into cumulative accumulators, and
  ``WorkerTelemetry.cut_delta`` — called once after every shard RPC —
  snapshots them with a timestamp, so totals can be cut to any window;
* cheap, frequent calls (event records, span ends) record a timestamp.

A worker writes ``spans-<pid>.jsonl`` when its journal closes on stop;
the API process writes its file when the traced launcher exits.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from time import perf_counter

# Accumulator slots, cumulative within one process.  ENG_* counts
# engine ingests that closed no window, CLOSE_* those that did.
(JOURNAL_S, JOURNAL_OBS, INGEST_RPCS, FSYNCS, SUBMIT_N, SUBMIT_S, PUMP_N,
 PUMP_S, ENG_N, ENG_S, CLOSE_N, CLOSE_S, CLASSIFY_N, CLASSIFY_S, CUT_N,
 CUT_S, MAX_DEPTH) = range(17)
N_ACC = 17


class Recorder:
    """Everything one process records; see the module docstring."""

    def __init__(self) -> None:
        self.span_dir: Path | None = None
        self.role = "api"
        self.runner = None
        self.spans: list = []
        self.marks: dict[str, list] = {}
        self.acc = [0.0] * N_ACC
        self.snapshots: list = []
        self.batch: dict[str, list] = {}

    def reset(self) -> None:
        """Empty every record in place (wrappers hold references)."""
        self.spans.clear()
        self.marks.clear()
        self.acc[:] = [0.0] * N_ACC
        self.snapshots.clear()
        self.batch.clear()

    def after_fork(self) -> None:
        self.reset()
        self.role = "worker"
        self.runner = None

    def snapshot(self) -> None:
        self.snapshots.append([perf_counter(), *self.acc])
        self.acc[MAX_DEPTH] = 0

    def dump(self) -> Path | None:
        if self.span_dir is None:
            return None
        path = self.span_dir / f"spans-{os.getpid()}.jsonl"
        stages = (
            self.runner.tracer.stage_timings() if self.runner is not None else {}
        )
        with open(path, "w") as out:
            out.write(json.dumps({
                "type": "process", "pid": os.getpid(), "role": self.role,
                "stage_timings": stages, "marks": self.marks,
                "snapshots": self.snapshots, "batch": self.batch,
            }) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        return path


RECORDER = Recorder()


def _wrap(cls, name: str, make):
    original = getattr(cls, name)
    wrapper = make(original)
    wrapper.__wrapped__ = original
    setattr(cls, name, wrapper)


def _span(cls, name: str, attr=None) -> None:
    """Record one span per call of ``cls.name``."""
    spans = RECORDER.spans
    label = f"{cls.__name__}.{name}"

    def make(original):
        def wrapper(self, *args, **kwargs):
            t0 = perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                spans.append([
                    label, t0, perf_counter(), threading.get_ident(),
                    attr(args, kwargs) if attr is not None else None,
                ])
        return wrapper

    _wrap(cls, name, make)


def _count(cls, name: str, mark: str) -> None:
    """Record a timestamp per call of ``cls.name`` under ``mark``."""
    stamps = RECORDER.marks

    def make(original):
        def wrapper(self, *args, **kwargs):
            stamps.setdefault(mark, []).append(perf_counter())
            return original(self, *args, **kwargs)
        return wrapper

    _wrap(cls, name, make)


def _ingest_attr(args, kwargs):
    ctx = kwargs.get("parent_context", args[1] if len(args) > 1 else None)
    return [getattr(ctx, "trace_id", None), len(args[0])]


def _rpc_attr(args, kwargs):
    ctx = kwargs.get("trace_context") or {}
    return [ctx.get("trace_id"), len(args[0])]


def install_service(span_dir: Path | None) -> None:
    """Wrap the serve/stream/obs layers in this process (before fork)."""
    import repro.stream.engine as engine_mod
    from repro.obs.alerts import AlertEngine
    from repro.obs.distributed import FleetView, WorkerTelemetry
    from repro.obs.events import EventLogger
    from repro.obs.history import MetricsHistory
    from repro.obs.tracing import Tracer
    from repro.serve.runner import ServiceRunner
    from repro.serve.shard import ShardClient
    from repro.stream.engine import StreamEngine
    from repro.stream.journal import StreamJournal
    from repro.stream.overload import AdmissionController

    RECORDER.span_dir = span_dir
    if hasattr(ServiceRunner.ingest, "__wrapped__"):
        return
    os.register_at_fork(after_in_child=RECORDER.after_fork)
    acc = RECORDER.acc

    # Request- and RPC-level spans (API process).
    _span(ServiceRunner, "ingest", _ingest_attr)
    _span(ServiceRunner, "query_block_ex", lambda a, k: a[0])
    _span(ServiceRunner, "phase_map")
    _span(ShardClient, "ingest", _rpc_attr)
    _span(ShardClient, "store_hints", lambda a, k: len(a[1]))
    _span(ShardClient, "query_block", lambda a, k: a[0])
    _span(FleetView, "apply")
    _span(FleetView, "aggregate")
    _span(AlertEngine, "evaluate")
    _span(MetricsHistory, "sample")
    _count(EventLogger, "log", "events")
    _count(EventLogger, "emit", "events")
    _count(Tracer, "end", "spans")
    _count(Tracer, "graft", "spans")

    def runner_start(original):
        def wrapper(self, *args, **kwargs):
            RECORDER.runner = self
            return original(self, *args, **kwargs)
        return wrapper

    _wrap(ServiceRunner, "start", runner_start)

    # Shard-worker accumulators, snapshotted once per RPC.
    def journal_append_many(original):
        def wrapper(self, block_ids, times, *args, **kwargs):
            t0 = perf_counter()
            try:
                return original(self, block_ids, times, *args, **kwargs)
            finally:
                acc[JOURNAL_S] += perf_counter() - t0
                acc[JOURNAL_OBS] += len(times)
                acc[INGEST_RPCS] += 1
        return wrapper

    def journal_settle(original):
        def wrapper(self):
            t0 = perf_counter()
            try:
                return original(self)
            finally:
                acc[JOURNAL_S] += perf_counter() - t0
        return wrapper

    def journal_close(original):
        def wrapper(self):
            try:
                return original(self)
            finally:
                if RECORDER.role == "worker":
                    RECORDER.dump()
        return wrapper

    _wrap(StreamJournal, "append_many", journal_append_many)
    _wrap(StreamJournal, "settle", journal_settle)
    _wrap(StreamJournal, "close", journal_close)

    fsync = os.fsync

    def counted_fsync(fd):
        acc[FSYNCS] += 1
        return fsync(fd)

    os.fsync = counted_fsync

    def controller_submit(original):
        def wrapper(self, block_id, time_s, value):
            t0 = perf_counter()
            original(self, block_id, time_s, value)
            acc[SUBMIT_S] += perf_counter() - t0
            acc[SUBMIT_N] += 1
        return wrapper

    def controller_pump(original):
        def wrapper(self, budget=None):
            depth = self.depth
            if depth > acc[MAX_DEPTH]:
                acc[MAX_DEPTH] = depth
            t0 = perf_counter()
            try:
                return original(self, budget)
            finally:
                acc[PUMP_S] += perf_counter() - t0
                acc[PUMP_N] += 1
        return wrapper

    _wrap(AdmissionController, "submit", controller_submit)
    _wrap(AdmissionController, "pump", controller_pump)

    def engine_ingest(original):
        def wrapper(self, block_id, time_s, value):
            closes = acc[CLASSIFY_N]
            t0 = perf_counter()
            original(self, block_id, time_s, value)
            dt = perf_counter() - t0
            if acc[CLASSIFY_N] == closes:
                acc[ENG_S] += dt
                acc[ENG_N] += 1
            else:
                acc[CLOSE_S] += dt
                acc[CLOSE_N] += 1
        return wrapper

    _wrap(StreamEngine, "ingest", engine_ingest)

    def classify(original):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                acc[CLASSIFY_S] += perf_counter() - t0
                acc[CLASSIFY_N] += 1
        return wrapper

    _wrap(engine_mod, "classify_series", classify)

    def cut_delta(original):
        def wrapper(self):
            t0 = perf_counter()
            try:
                return original(self)
            finally:
                acc[CUT_S] += perf_counter() - t0
                acc[CUT_N] += 1
                RECORDER.snapshot()
        return wrapper

    _wrap(WorkerTelemetry, "cut_delta", cut_delta)


BATCH_FUNCTIONS = (
    "synthesize_availability", "apply_restart_bias", "adaptive_counts",
    "estimate_series", "classify_many",
)


def install_batch() -> None:
    """Time the layers ``measure_world`` calls, in its own namespace."""
    import repro.simulation.fastsim as fastsim

    for name in BATCH_FUNCTIONS:
        def make(original, name=name):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    slot = RECORDER.batch.setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += perf_counter() - t0
            return wrapper

        if not hasattr(getattr(fastsim, name), "__wrapped__"):
            _wrap(fastsim, name, make)


def uninstall_batch() -> None:
    import repro.simulation.fastsim as fastsim

    for name in BATCH_FUNCTIONS:
        original = getattr(getattr(fastsim, name), "__wrapped__", None)
        if original is not None:
            setattr(fastsim, name, original)
