"""The stack ladder and the batch probe, both run with tracing on.

The ladder feeds one close wave's worth of the ``ingest_bulk`` trace
(every block's first window, plus the round that closes it) through
ever larger stacks, single-threaded and closed-loop:

1. ``engine``    — a bare ``StreamEngine``;
2. ``admission`` — + ``AdmissionController`` (submit per observation,
   pump per batch, as a shard worker does);
3. ``journal``   — + ``StreamJournal`` write-ahead (append + settle);
4. ``runner``    — + ``ServiceRunner`` in this process, one shard worker;
5. ``http``      — + the HTTP API: the traced launcher, one shard, one
   connection.

Each level reports microseconds per observation for the whole stack, so
the difference between two levels is the cost of the layer added; the
``engine`` level is the single-threaded baseline for the same job.
Every level runs under the :mod:`bench.probes` wrappers, so they cost
each level alike.

The ``http`` level's spans double as the service-layer numbers of the
study workload (which runs no service), and :func:`batch_probe` — one
seeded world through ``measure_world`` — gives the batch-layer numbers
of the service workloads.
"""

from __future__ import annotations

import time

import numpy as np

from bench import layers
from bench.fleet import Fleet, RequestFactory
from bench.loadgen import Connection, run_closed_loop
from bench.probes import RECORDER, install_batch, install_service, uninstall_batch
from bench.service import ServiceProcess, serve_argv


def run_ladder(ctx, fill: bool) -> dict:
    """Ladder metrics; with ``fill``, the service layers from its top."""
    from repro.obs.alerts import default_service_rules
    from repro.obs.events import EventLogger
    from repro.obs.history import HistoryConfig
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracing import Tracer
    from repro.serve.runner import ServiceConfig, ServiceRunner
    from repro.stream.engine import StreamConfig, StreamEngine
    from repro.stream.journal import StreamJournal
    from repro.stream.overload import AdmissionController, OverloadConfig

    install_service(None)
    p = ctx.params
    batch = p["workloads"]["ingest_bulk"]["batch"]
    config = StreamConfig.for_days(1.0)
    fleet = Fleet(ctx.seed, p["fleet_blocks"], config.window_rounds + 1,
                  n_groups=1)
    n = len(fleet)
    ids, times, values = fleet.block, fleet.time, fleet.value
    triples = fleet.triples(np.arange(n))
    batches = [slice(i, min(i + batch, n)) for i in range(0, n, batch)]
    overload = OverloadConfig(capacity=4096, seed=0)
    pump_budget = 2048
    out = {}

    def level(name: str, seconds: float) -> None:
        out[f"ladder.{name}_us_per_obs"] = seconds / n * 1e6

    # The first pass only warms lazy imports and caches.
    for _ in range(2):
        engine = StreamEngine(config)
        t0 = time.perf_counter()
        for triple in triples:
            engine.ingest(*triple)
        level("engine", time.perf_counter() - t0)

    def worker_loop(controller, journal=None) -> float:
        """A shard worker's ingest handling, batch by batch."""
        t0 = time.perf_counter()
        for sl in batches:
            if journal is not None:
                journal.append_many(ids[sl], times[sl], values[sl])
                journal.settle()
            submit = controller.submit
            for block_id, time_s, value in zip(ids[sl], times[sl], values[sl]):
                submit(int(block_id), float(time_s), float(value))
            controller.pump(pump_budget)
        return time.perf_counter() - t0

    level("admission", worker_loop(AdmissionController(StreamEngine(config), overload)))
    journal = StreamJournal(ctx.work / "ladder.journal", sync_every=256)
    try:
        level("journal", worker_loop(
            AdmissionController(StreamEngine(config), overload), journal
        ))
    finally:
        journal.close()

    runner = ServiceRunner(
        ServiceConfig(
            stream=config, journal_dir=ctx.work / "ladder-runner", n_shards=1,
            replication=1, overload=overload, seed=0,
            history=HistoryConfig(raw_capacity=512, max_series=512),
        ),
        metrics=MetricsRegistry(), events=EventLogger(),
        alert_rules=default_service_rules(), tracer=Tracer(),
    )
    runner.start()
    try:
        t0 = time.perf_counter()
        for sl in batches:
            runner.ingest(triples[sl])
        level("runner", time.perf_counter() - t0)
    finally:
        runner.stop()

    span_dir = ctx.work / "ladder-spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    factory = RequestFactory(ctx.seed)
    requests = [factory.post(fleet, np.arange(sl.start, sl.stop)) for sl in batches]
    service = ServiceProcess(
        serve_argv(1, 1, ctx.work / "ladder-http", span_dir),
        ctx.env, ctx.work / "ladder-http.log",
    )
    conn = None
    try:
        service.wait_listening()
        service.wait_healthy()
        conn = Connection(service.port)
        cpu0 = service.cpu()
        phase = run_closed_loop([conn], requests)
        level("http", phase.wall_s)
        bad = sum(1 for s in phase.samples if s.status != 200)
        if bad:
            raise RuntimeError(f"ladder http level: {bad} requests failed")
        samples = [(requests[s.index], s.send, s.recv) for s in phase.samples]
        if fill:
            # Reads and phase maps, so the query-side layers have spans.
            rng = np.random.default_rng(ctx.seed)
            for block_id in rng.choice(fleet.block_ids, 64):
                request = factory.read_block(int(block_id))
                send = time.perf_counter()
                conn.roundtrip(request.raw)
                samples.append((request, send, time.perf_counter()))
            for _ in range(2):
                request = factory.phase_map()
                send = time.perf_counter()
                conn.roundtrip(request.raw)
                samples.append((request, send, time.perf_counter()))
        window = (phase.t0, samples[-1][2])
        cpu1 = service.cpu()
        cpu_share = {
            k: (cpu1[k] - cpu0[k]) / (window[1] - window[0]) for k in cpu0
        }
    finally:
        if conn is not None:
            conn.close()
        service.stop()
    if fill:
        out.update(layers.service_layers(
            span_dir, window, samples, samples, cpu_share
        ))
    return out


def batch_probe(ctx) -> dict:
    """One seeded world through the traced ``measure_world``."""
    import repro.simulation.fastsim as fastsim
    from repro.probing.rounds import RoundSchedule
    from repro.simulation.internet import WorldConfig, generate_world
    from repro.simulation.scenarios import SCENARIO_SCHEDULES

    spec = ctx.params["workloads"]["study_a12w"]
    n_blocks = ctx.params["batch_probe_blocks"]
    a12w = SCENARIO_SCHEDULES["A12W"]
    schedule = RoundSchedule.for_days(
        spec["days"], start_s=a12w["start_s"],
        restart_interval_s=a12w["restart_interval_s"],
    )
    world = generate_world(WorldConfig(n_blocks=n_blocks, seed=ctx.seed * 1000))
    RECORDER.batch.clear()
    install_batch()
    try:
        fastsim.measure_world(world, schedule)
    finally:
        uninstall_batch()
    found = layers.batch_layers(RECORDER.batch, n_blocks)
    # The service workloads measure classification per window close.
    found.pop("core.classify.us_per_call")
    return found
