"""Per-layer metrics from the traced run's span files and client samples.

A *sample* is one request as the load generator saw it:
``(request, send, recv)`` in ``perf_counter`` seconds.  The span files
come from :mod:`bench.probes`.  Metrics are cut to the timed window,
except the window-close figures (``stream.engine.close_us_mean``,
``stream.engine.closes``, ``core.classify.us_per_call``) and the
``trace.prod_gap.*`` cross-checks, which cover the traced service's
whole life so that every workload — including ``chatty_mix``, whose
only close wave is in its warm-up — has them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from bench import probes as P


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100)."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _pct(values, q):
    return percentile(values, q) if values else 0.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def load_spans(span_dir: Path) -> tuple[dict, list[dict]]:
    """The API process's record and every shard worker's record."""
    api = None
    workers = []
    for path in sorted(span_dir.glob("spans-*.jsonl")):
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["spans"] = [json.loads(line) for line in lines[1:]]
        if record["role"] == "api":
            api = record
        else:
            workers.append(record)
    if api is None:
        raise RuntimeError(f"no API span file in {span_dir}")
    return api, workers


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for s0, s1 in sorted(intervals):
        if s1 <= end:
            continue
        total += s1 - max(s0, end)
        end = s1
    return total


def _at(snapshots: list, t: float) -> list:
    """The cumulative accumulators as of time ``t``."""
    last = [0.0] * (P.N_ACC + 1)
    for snap in snapshots:
        if snap[0] > t:
            break
        last = snap
    return last


def _delta(workers: list, t0: float, t1: float) -> list:
    total = [0.0] * P.N_ACC
    for w in workers:
        a, b = _at(w["snapshots"], t0), _at(w["snapshots"], t1)
        for i in range(P.N_ACC):
            total[i] += b[i + 1] - a[i + 1]
    return total


def _ingest_rpcs(workers: list, t0: float, t1: float) -> list:
    """Per ingest RPC: the accumulator deltas of that RPC."""
    rows = []
    for w in workers:
        prev = [0.0] * (P.N_ACC + 1)
        for snap in w["snapshots"]:
            if t0 <= snap[0] <= t1 and snap[1 + P.INGEST_RPCS] > prev[1 + P.INGEST_RPCS]:
                rows.append([b - a for a, b in zip(prev[1:], snap[1:])])
            prev = snap
    return rows


def _worker_ingest_s(row: list) -> float:
    """Worker-side time of one ingest RPC: journal, admission, pump."""
    return row[P.JOURNAL_S] + row[P.SUBMIT_S] + row[P.PUMP_S]


def _lifetime(workers: list, slot: int) -> float:
    return sum(w["snapshots"][-1][1 + slot] for w in workers if w["snapshots"])


def service_layers(span_dir: Path, window: tuple, samples: list,
                   lifetime_samples: list, cpu_share: dict) -> dict:
    """Every service-side per-layer metric of one traced service."""
    api, workers = load_spans(span_dir)
    t0, t1 = window
    spans = api["spans"]

    def named(name, inside=True):
        return [
            s for s in spans
            if s[0] == name and (not inside or t0 <= s[1] <= t1)
        ]

    def dur(s):
        return s[2] - s[1]

    ingests = named("ServiceRunner.ingest")
    rpcs = named("ShardClient.ingest")
    rpcs_by_trace: dict = {}
    for s in rpcs:
        rpcs_by_trace.setdefault(s[4][0], []).append(s)
    ingest_by_trace = {s[4][0]: s for s in ingests}
    ingest_self = 0.0
    n_rpcs_posts = 0
    for s in ingests:
        children = rpcs_by_trace.get(s[4][0], [])
        n_rpcs_posts += len(children)
        ingest_self += dur(s) - _union(
            (max(c[1], s[1]), min(c[2], s[2])) for c in children
        )
    ingest_obs = sum(s[4][1] for s in ingests)
    rpc_obs = sum(s[4][1] for s in rpcs)
    rpc_s = sum(dur(s) for s in rpcs)

    queries = named("ServiceRunner.query_block_ex")
    query_children = named("ShardClient.query_block")
    phase_maps = named("ServiceRunner.phase_map")
    queries_by_block: dict = {}
    for s in queries:
        queries_by_block.setdefault(s[4], []).append(s)

    def runner_span(request, send, recv):
        if request.kind == "post":
            return ingest_by_trace.get(request.trace_id)
        pool = (
            queries_by_block.get(request.block_id, [])
            if request.kind == "read" else phase_maps
        )
        return next((s for s in pool if send <= s[1] <= recv), None)

    api_self = []
    for request, send, recv in samples:
        span = runner_span(request, send, recv)
        if span is not None:
            api_self.append((recv - send - dur(span)) * 1e3)
    query_self = [
        (dur(q) - sum(
            dur(c) for c in query_children
            if c[3] == q[3] and q[1] <= c[1] <= q[2]
        )) * 1e3
        for q in queries
    ]

    delta = _delta(workers, t0, t1)
    rows = _ingest_rpcs(workers, t0, t1)
    worker_rpc_s = sum(_worker_ingest_s(r) + r[P.CUT_S] for r in rows)
    pumps_ms = [r[P.PUMP_S] * 1e3 for r in rows]
    max_depth = max(
        (s[1 + P.MAX_DEPTH] for w in workers for s in w["snapshots"]
         if t0 <= s[0] <= t1),
        default=0,
    )
    n_posts = sum(1 for r, _, _ in samples if r.kind == "post")

    def marks(name):
        return sum(
            1
            for record in (api, *workers)
            for t in record["marks"].get(name, [])
            if t0 <= t <= t1
        )

    supervise_s = sum(
        dur(s) for name in (
            "FleetView.aggregate", "AlertEngine.evaluate", "MetricsHistory.sample"
        ) for s in named(name)
    )

    stages = api["stage_timings"]

    def gap(stage: str, bench_s: float) -> float:
        prod = stages.get(stage, {}).get("total_s", 0.0)
        return _ratio(prod - bench_s, bench_s)

    all_ingest_rows = _ingest_rpcs(workers, float("-inf"), float("inf"))
    return {
        "serve.api.self_ms_p50": _pct(api_self, 50),
        "serve.api.self_ms_p99": _pct(api_self, 99),
        "serve.runner.ingest_self_us_per_obs": _ratio(ingest_self, ingest_obs, 1e6),
        "serve.runner.rpcs_per_post": _ratio(n_rpcs_posts, len(ingests)),
        "serve.runner.query_self_ms_p50": _pct(query_self, 50),
        "serve.runner.phase_map_ms_p50": _pct([dur(s) * 1e3 for s in phase_maps], 50),
        "serve.shard.rpc_us_per_obs": _ratio(rpc_s, rpc_obs, 1e6),
        "serve.shard.transport_us_per_obs":
            _ratio(rpc_s - worker_rpc_s, rpc_obs, 1e6),
        "stream.journal.us_per_obs":
            _ratio(delta[P.JOURNAL_S], delta[P.JOURNAL_OBS], 1e6),
        "stream.journal.fsyncs": delta[P.FSYNCS],
        "stream.overload.submit_us_per_obs":
            _ratio(delta[P.SUBMIT_S], delta[P.SUBMIT_N], 1e6),
        "stream.overload.max_depth": max_depth,
        "stream.engine.us_per_obs": _ratio(delta[P.ENG_S], delta[P.ENG_N], 1e6),
        "stream.engine.close_us_mean": _ratio(
            _lifetime(workers, P.CLOSE_S), _lifetime(workers, P.CLOSE_N), 1e6
        ),
        "stream.engine.closes": _lifetime(workers, P.CLASSIFY_N),
        "stream.engine.pump_ms_p99": _pct(pumps_ms, 99),
        "stream.engine.pump_ms_max": max(pumps_ms, default=0.0),
        "core.classify.us_per_call": _ratio(
            _lifetime(workers, P.CLASSIFY_S), _lifetime(workers, P.CLASSIFY_N), 1e6
        ),
        "obs.telemetry.cut_us_per_rpc": _ratio(delta[P.CUT_S], delta[P.CUT_N], 1e6),
        "obs.telemetry.apply_us_per_rpc": _ratio(
            sum(dur(s) for s in named("FleetView.apply")),
            len(named("FleetView.apply")), 1e6,
        ),
        "obs.supervise.busy_share": _ratio(supervise_s, t1 - t0),
        "obs.events.records_per_post": _ratio(marks("events"), n_posts),
        "obs.tracing.spans_per_post": _ratio(marks("spans"), n_posts),
        "proc.api_cpu_share": cpu_share["api"],
        "proc.shard_cpu_share": cpu_share["shard"],
        "proc.loadgen_cpu_share": cpu_share["loadgen"],
        "trace.prod_gap.http.request": gap(
            "http.request", sum(recv - send for _, send, recv in lifetime_samples)
        ),
        "trace.prod_gap.route": gap(
            "route", sum(dur(s) for s in named("ServiceRunner.ingest", False))
        ),
        "trace.prod_gap.shard.rpc": gap(
            "shard.rpc",
            sum(dur(s) for s in named("ShardClient.ingest", False) if s[4][0]),
        ),
        "trace.prod_gap.engine.ingest": gap(
            "engine.ingest", sum(_worker_ingest_s(r) for r in all_ingest_rows)
        ),
    }


def batch_layers(batch: dict, n_blocks: int) -> dict:
    """Per-layer metrics of ``measure_world`` from the batch wrappers."""

    def total(name):
        return batch.get(name, [0, 0.0])[1]

    return {
        "core.classify.us_per_call": _ratio(total("classify_many"), n_blocks, 1e6),
        "core.classify.classify_many_s": total("classify_many"),
        "core.estimator.estimate_series_s": total("estimate_series"),
        "simulation.fastsim.synthesize_s": total("synthesize_availability"),
        "simulation.fastsim.restart_bias_s": total("apply_restart_bias"),
        "simulation.fastsim.adaptive_counts_s": total("adaptive_counts"),
    }
