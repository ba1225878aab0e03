"""The four workloads: three served over HTTP, one batch study.

Each workload returns a :class:`Result`: its end-to-end metrics, the
operations it attempted and the ones that failed an output check, and
(when traced) its per-layer metrics.  See ``bench/README.md`` for why
each workload exists and what every metric means.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench import layers
from bench.fleet import (
    Fleet,
    RequestFactory,
    group_posts,
    interleave,
    oracle_report,
    posts,
    verdict_matches,
)
from bench.layers import percentile
from bench.loadgen import Connection, run_closed_loop, run_open_loop
from bench.service import ServiceProcess, peak_rss_mb, serve_argv

BENCH_DIR = Path(__file__).resolve().parent
PARAMS_PATH = BENCH_DIR / "params.json"
WORKLOADS = ("ingest_bulk", "ingest_replicated", "chatty_mix", "study_a12w")


def load_params(smoke: bool = False) -> dict:
    """Frozen workload parameters, with the smoke overrides applied."""
    params = json.loads(PARAMS_PATH.read_text())
    overrides = params.pop("smoke")
    params["smoke"] = smoke
    if smoke:
        for key, value in overrides.items():
            if key == "workloads":
                for name, spec in value.items():
                    params["workloads"][name].update(spec)
            else:
                params[key] = value
    return params


@dataclass
class Context:
    """Where and how one benchmark invocation runs."""

    work: Path
    seed: int
    seconds: float
    trace: bool
    params: dict
    env: dict


@dataclass
class Result:
    workload: str
    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, n: int, reason: str) -> None:
        if n:
            self.failed += n
            self.failures.append(f"{reason} ({n} operations)")


# -- service workloads ---------------------------------------------------------


@dataclass
class Plan:
    """Every request a service workload sends, encoded before any clock.

    ``closed`` is a list of segments; capacity is the median of their
    rates.  An ingest segment spans one window's worth of rounds, so
    each holds exactly one close wave.
    """

    kind: str
    fleet: Fleet
    warm: list
    open: list
    open_rate: float
    closed: list
    verdict_blocks: list
    posted: np.ndarray


def plan_requests(name: str, ctx: Context) -> Plan:
    from repro.stream.engine import StreamConfig

    p = ctx.params
    spec = p["workloads"][name]
    n_conns = p["connections"]
    n_blocks = p["fleet_blocks"]
    window = StreamConfig.for_days(1.0).window_rounds
    # Every block's first window, plus the round that closes it.
    warm_rounds = window + 1
    n_segments = p["closed_segments"]
    open_s = ctx.seconds / p["setups"]
    rng = random.Random(ctx.seed * 1_000_003 + 11)
    factory = RequestFactory(ctx.seed)
    if spec["kind"] == "ingest":
        open_rounds = math.ceil(spec["rate_obs_per_s"] * open_s / n_blocks)
        n_rounds = warm_rounds + open_rounds + n_segments * window + 1
    else:
        per_s = spec["mix_per_second"]
        per_s_total = sum(per_s.values())
        n_posts = per_s["post"] * (
            math.ceil(open_s) + n_segments
            + math.ceil(n_segments * spec["segment_requests"] / per_s_total)
        )
        n_rounds = warm_rounds + math.ceil(
            n_posts * spec["post_obs"] / (0.95 * n_blocks)
        )
    fleet = Fleet(ctx.seed, n_blocks, n_rounds, n_groups=n_conns)
    at = fleet.round_offset
    warm = posts(factory, fleet, 0, at(warm_rounds), p["warmup_batch"], n_conns)
    if spec["kind"] == "ingest":
        batch = spec["batch"]
        first = warm_rounds + open_rounds
        open_reqs = posts(factory, fleet, at(warm_rounds), at(first), batch,
                          n_conns)
        closed = [
            posts(factory, fleet, at(first + k * window),
                  at(first + (k + 1) * window), batch, n_conns)
            for k in range(n_segments)
        ]
        open_rate = spec["rate_obs_per_s"] / batch
    else:
        streams = [
            iter(group_posts(factory, fleet, at(warm_rounds), len(fleet),
                             spec["post_obs"], k))
            for k in range(n_conns)
        ]
        shares = {kind: n // n_conns for kind, n in per_s.items()}

        def mix(n: int) -> list:
            out: list = []
            while len(out) < n:
                per_conn = []
                for k in range(n_conns):
                    kinds = [kind for kind, m in shares.items() for _ in range(m)]
                    rng.shuffle(kinds)
                    per_conn.append([
                        next(streams[k]) if kind == "post"
                        else factory.read_block(
                            int(rng.choice(fleet.block_ids)), conn=k)
                        if kind == "read"
                        else factory.phase_map(conn=k)
                        for kind in kinds
                    ])
                out.extend(interleave(per_conn))
            return out[:n]

        open_reqs = mix(int(per_s_total * open_s))
        closed = [mix(spec["segment_requests"]) for _ in range(n_segments)]
        open_rate = float(per_s_total)
    posted = np.zeros(len(fleet), dtype=bool)
    for request in (*warm, *open_reqs, *(r for seg in closed for r in seg)):
        if request.kind == "post":
            posted[request.obs_idx] = True
    verdict_blocks = rng.sample(
        [int(b) for b in fleet.block_ids], min(p["verdict_blocks"], n_blocks)
    )
    return Plan(spec["kind"], fleet, warm, open_reqs, open_rate, closed,
                verdict_blocks, posted)


class Session:
    """One service process driven through setup, phases and checks."""

    def __init__(self, name: str, ctx: Context, span_dir: Path | None,
                 tag: str) -> None:
        self.name = name
        self.ctx = ctx
        self.replication = ctx.params["workloads"][name]["replication"]
        self.span_dir = span_dir
        self.tag = tag
        self.service: ServiceProcess | None = None
        self.conns: list[Connection] = []
        self.warm: list = []

    def setup(self, plan: Plan) -> float:
        """Launch → /healthz 200 → one closed-loop window per block."""
        ctx = self.ctx
        t0 = time.perf_counter()
        argv = serve_argv(
            self.replication, ctx.params["shards"],
            ctx.work / f"{self.name}-{self.tag}", self.span_dir,
        )
        self.service = ServiceProcess(
            argv, ctx.env, ctx.work / f"{self.name}-{self.tag}.log"
        )
        self.service.wait_listening()
        self.service.wait_healthy()
        self.conns = [
            Connection(self.service.port)
            for _ in range(ctx.params["connections"])
        ]
        warm = run_closed_loop(self.conns, plan.warm)
        self.warm = [(plan.warm[s.index], s.send, s.recv) for s in warm.samples]
        bad = [s for s in warm.samples if s.status != 200]
        if bad:
            raise RuntimeError(
                f"warm-up: {len(bad)} requests answered {bad[0].status}"
            )
        return time.perf_counter() - t0

    def counters(self) -> dict:
        snap = self.service.get_json("/metrics?format=json")["metrics"]
        fleet = self.service.get_json("/fleet")["shards"]

        def total(prefix: str) -> float:
            return sum(
                v for k, v in snap["counters"].items()
                if k == prefix or k.startswith(prefix + "{")
            )

        def stat(key: str) -> int:
            return sum(s["stats"][key] for s in fleet.values())

        return {
            "lost": total("stream_observations_shed_total")
            + total("stream_late_observations_total")
            + total("stream_invalid_observations_total"),
            "fleet_lost": stat("n_shed") + stat("n_invalid"),
            "submitted": stat("n_submitted"),
        }

    def wait_drained(self, timeout_s: float = 60.0) -> float:
        """Poll ``/fleet`` until every admission queue is empty."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            shards = self.service.get_json("/fleet")["shards"].values()
            if all(s["stats"]["depth"] == 0 for s in shards):
                return time.perf_counter()
            time.sleep(0.002)
        raise RuntimeError("admission queues never drained")

    def check_verdicts(self, plan: Plan, result: Result) -> list:
        """Read the seeded blocks; compare with the batch oracle.

        Returns the reads as ``(request, send, recv)`` for the trace.
        """
        from repro.stream.engine import StreamConfig

        config = StreamConfig.for_days(1.0)
        factory = RequestFactory(self.ctx.seed + 1)
        fleet = plan.fleet
        reads = []

        def get(request):
            send = time.perf_counter()
            status, body = self.conns[0].roundtrip(request.raw)
            reads.append((request, send, time.perf_counter()))
            result.attempted += 1
            return json.loads(body) if status == 200 else None

        bad = 0
        expected = {}
        for block_id in plan.verdict_blocks:
            state = get(factory.read_block(block_id))
            if state is None:
                bad += 1
                continue
            mine = plan.posted & (fleet.block == block_id)
            expected[block_id] = oracle_report(
                fleet.time[mine], fleet.value[mine],
                state["next_close_start"] - config.hop, config,
            )
            if (
                state["n_observations"] != int(mine.sum())
                or state["n_late"] != 0
                or not verdict_matches(state["last_report"], expected[block_id])
            ):
                bad += 1
        result.fail(bad, "block state differs from the batch oracle")
        # The phase map lists exactly the diurnal blocks, with the
        # oracle's label and phase.
        phase_map = get(factory.phase_map())
        entries = phase_map["blocks"] if phase_map is not None else {}
        if phase_map is None or any(
            (report["label"] in ("strict", "relaxed"))
            != (str(block_id) in entries)
            or str(block_id) in entries and (
                entries[str(block_id)]["label"] != report["label"]
                or entries[str(block_id)]["phase"] != report["phase"]
            )
            for block_id, report in expected.items()
        ):
            result.fail(1, "phase map differs from the batch oracle")
        return reads

    def close(self) -> int:
        for conn in self.conns:
            conn.close()
        return self.service.stop() if self.service is not None else 0

    def kill(self) -> None:
        for conn in self.conns:
            conn.close()
        if self.service is not None:
            self.service.kill()


def _score(phase, requests, result: Result) -> tuple[int, int]:
    """Count one phase's operations and failures; return accepted obs
    and successful requests."""
    ok_obs = ok_req = bad_ops = 0
    for sample in phase.samples:
        request = requests[sample.index]
        ops = request.n_obs if request.kind == "post" else 1
        result.attempted += ops
        if 200 <= sample.status < 300:
            ok_req += 1
            ok_obs += request.n_obs
        else:
            bad_ops += ops
    result.fail(bad_ops, "non-2xx response or timeout")
    return ok_obs, ok_req


def run_phases(session: Session, plan: Plan, result: Result) -> dict:
    """The timed phases on a warmed-up service, and their output checks.

    Each closed-loop segment ends when its last reply is in and every
    admission queue is empty again.
    """
    before = session.counters()
    cpu0 = session.service.cpu()
    t_start = time.perf_counter()
    opened = run_open_loop(session.conns, plan.open, plan.open_rate)
    segments = []
    for requests in plan.closed:
        phase = run_closed_loop(session.conns, requests)
        phase.t1 = session.wait_drained()
        segments.append(phase)
    t_end = segments[-1].t1
    cpu1 = session.service.cpu()
    after = session.counters()

    posted = _score(opened, plan.open, result)[0]
    rates = []
    for phase, requests in zip(segments, plan.closed):
        obs, req = _score(phase, requests, result)
        posted += obs
        rates.append((obs if plan.kind == "ingest" else req) / phase.wall_s)
    lost = int(after["lost"] - before["lost"])
    result.fail(lost, "observations shed, late or invalid (/metrics)")
    lost_fleet = int(after["fleet_lost"] - before["fleet_lost"])
    result.fail(max(0, lost_fleet - lost), "observations shed or invalid (/fleet)")
    missing = session.replication * posted - int(
        after["submitted"] - before["submitted"]
    )
    result.fail(abs(missing), "accepted observations never submitted")
    return {
        "open": opened,
        "closed": segments,
        "t_start": t_start,
        "t_end": t_end,
        "segment_rates": rates,
        "cpu_share": {
            k: (cpu1[k] - cpu0[k]) / (t_end - t_start) for k in cpu0
        },
    }


def run_session(name: str, ctx: Context, plan: Plan, result: Result,
                tag: str, span_dir: Path | None = None) -> dict:
    """One replicate: set up a service, run the phases and every check."""
    session = Session(name, ctx, span_dir, tag)
    try:
        info = {"setup_s": session.setup(plan)}
        info["phases"] = run_phases(session, plan, result)
        info["reads"] = session.check_verdicts(plan, result)
        info["warm"] = session.warm
        info["rss_mb"] = sum(peak_rss_mb(pid) for pid in session.service.pids())
    except BaseException:
        session.kill()
        raise
    code = session.close()
    if code != 0:
        result.fail(1, f"service exited with code {code}")
    return info


def service_workload(name: str, ctx: Context) -> Result:
    p = ctx.params
    kind = p["workloads"][name]["kind"]
    result = Result(name)
    plan = plan_requests(name, ctx)

    if ctx.trace:
        untraced = run_session(name, ctx, plan, result, "untraced")
        span_dir = ctx.work / f"{name}-spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        traced = run_session(name, ctx, plan, result, "traced", span_dir)
        traced_cap = statistics.median(traced["phases"]["segment_rates"])
        untraced_cap = statistics.median(untraced["phases"]["segment_rates"])
        phases = traced["phases"]
        samples = [
            (requests[s.index], s.send, s.recv)
            for phase, requests in zip(
                [phases["open"], *phases["closed"]], [plan.open, *plan.closed]
            )
            for s in phase.samples
        ] + traced["reads"]
        window = (phases["t_start"], traced["reads"][-1][2])
        result.per_layer = layers.service_layers(
            span_dir, window, samples, traced["warm"] + samples,
            phases["cpu_share"],
        )
        result.per_layer["trace.overhead_ratio"] = 1.0 - traced_cap / untraced_cap
        result.details.update(capacity_traced=traced_cap,
                              capacity_untraced=untraced_cap)
        return result

    # Each set-up is a replicate: a fresh service that replays the same
    # requests.  Metrics are medians over replicates (capacity: over
    # every closed-loop segment), so one replicate disturbed by
    # something outside the benchmark cannot move them.
    infos = [
        run_session(name, ctx, plan, result, f"r{k}")
        for k in range(p["setups"])
    ]

    def open_samples(info: dict) -> list:
        return [
            s for s in info["phases"]["open"].samples
            if kind == "chatty" or plan.open[s.index].kind == "post"
        ]

    def median_of(fn) -> float:
        return statistics.median(fn(info) for info in infos)

    def latency(info: dict, q: float) -> float:
        return percentile(
            [(s.recv - s.due) * 1e3 for s in open_samples(info)], q
        )

    samples = [s for info in infos for s in open_samples(info)]
    result.metrics = {
        "setup_s": median_of(lambda info: info["setup_s"]),
        "p50_ms": median_of(lambda info: latency(info, 50)),
        "p90_ms": median_of(lambda info: latency(info, 90)),
        "capacity_per_s": statistics.median(
            r for info in infos for r in info["phases"]["segment_rates"]
        ),
        "peak_rss_mb": median_of(lambda info: info["rss_mb"]),
    }
    result.details.update({
        "setup_s_all": [info["setup_s"] for info in infos],
        "open_samples": len(samples),
        "p50_ms_all": [latency(info, 50) for info in infos],
        "p90_ms_all": [latency(info, 90) for info in infos],
        "p99_ms_all": [latency(info, 99) for info in infos],
        "segment_rates": [info["phases"]["segment_rates"] for info in infos],
        "loadgen_lag_p99_ms": percentile(
            [(s.send - s.due) * 1e3 for s in samples], 99
        ),
        "loadgen_self_lag_p99_ms": percentile(
            [(s.send - s.due) * 1e3 for s in samples if s.idle], 99
        ),
        "cpu_share": {
            k: statistics.mean(info["phases"]["cpu_share"][k] for info in infos)
            for k in ("api", "shard", "loadgen")
        },
    })
    if kind == "chatty":
        for sub in ("post", "read", "phase_map"):
            sub_lat = [
                (s.recv - s.due) * 1e3
                for info in infos for s in info["phases"]["open"].samples
                if plan.open[s.index].kind == sub
            ]
            result.details[f"{sub}_p50_ms"] = percentile(sub_lat, 50)
            result.details[f"{sub}_p90_ms"] = percentile(sub_lat, 90)
    return result


# -- the batch study -----------------------------------------------------------


def study_workload(ctx: Context) -> Result:
    spec = ctx.params["workloads"]["study_a12w"]
    result = Result("study_a12w")
    job = {
        "seed": ctx.seed, "worlds": spec["worlds"],
        "blocks_per_world": spec["blocks_per_world"], "days": spec["days"],
        "trace": ctx.trace,
    }
    setups = 1 if ctx.trace else ctx.params["setups"]
    setup_times = []
    out = None
    for k in range(setups):
        last = k == setups - 1
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "bench.study_child", json.dumps(job)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ctx.env,
            text=True,
        ) as child:
            try:
                line = child.stdout.readline()
                if json.loads(line or "{}").get("ready") is not True:
                    raise RuntimeError(f"study child failed to start: {line!r}")
                setup_times.append(time.perf_counter() - t0)
                child.stdin.write("go\n" if last else "quit\n")
                child.stdin.flush()
                if last:
                    out = json.loads(child.stdout.readline())
            except BaseException:
                child.kill()
                raise
        if child.returncode != 0:
            raise RuntimeError(f"study child exited with code {child.returncode}")

    n_blocks = spec["worlds"] * spec["blocks_per_world"]
    result.attempted = n_blocks
    times = out["measure_s"]
    frozen = spec.get("label_sha256")
    if ctx.seed == spec["digest_seed"] and frozen and not ctx.params["smoke"]:
        if out["label_sha256"] != frozen:
            result.fail(n_blocks, "label digest differs from the frozen one")
    result.fail(out["bad_labels"], "label codes outside the classifier's set")
    result.details.update({
        "setup_s_all": setup_times,
        "measure_s": times,
        "label_sha256": out["label_sha256"],
        "label_counts": out["label_counts"],
    })
    if ctx.trace:
        result.per_layer = layers.batch_layers(out["batch"], n_blocks)
        result.per_layer["trace.overhead_ratio"] = (
            1.0 - out["untraced_world_s"] / times[-1]
        )
        return result
    result.metrics = {
        "setup_s": statistics.median(setup_times),
        "p50_ms": percentile(times, 50) * 1e3,
        "p90_ms": percentile(times, 90) * 1e3,
        "capacity_per_s": n_blocks / sum(times),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return result


def run_workload(name: str, ctx: Context) -> Result:
    """One workload; traced runs add the ladder and the fill-in probes."""
    from bench import ladder

    if name == "study_a12w":
        result = study_workload(ctx)
    else:
        result = service_workload(name, ctx)
    if ctx.trace:
        for key, value in ladder.run_ladder(ctx, fill=name == "study_a12w").items():
            result.per_layer.setdefault(key, value)
        if name != "study_a12w":
            for key, value in ladder.batch_probe(ctx).items():
                result.per_layer.setdefault(key, value)
    return result
