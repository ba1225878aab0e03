"""Ablation: service ingest throughput and query latency vs shard count.

The sharded service's reason to exist is horizontal scale: with the
engine work spread over N worker processes, ingest throughput should
grow with N (machine permitting) while per-block query latency stays
flat — the ring adds an O(log n) lookup, not a scan.

For each shard count (1/2/4) the run starts a full service (shard
processes, journals, supervision), streams an identical synthetic
fleet through :meth:`ServiceRunner.ingest`, then times a burst of
:meth:`ServiceRunner.query_block` calls.  Batches are no larger than
the shard ``pump_budget``, so even the 1-shard level never overflows
its admission queue; an observation the queue sheds anyway is not
counted as ingested (``n_shed`` from :meth:`ServiceRunner.fleet_snapshot`
is subtracted, and must be zero).  Results (observations/sec,
query p50/p99) are written to ``abl_service.json`` so the CI service
job uploads the measured numbers as an artifact.

The throughput-scaling assertion only arms on machines with at least
4 CPUs — on a single-core runner every shard count serializes onto
the same core and the comparison is noise.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.serve import ServiceConfig, ServiceRunner
from repro.stream.engine import StreamConfig

RESULTS_DIR = Path(__file__).parent / "results"

ROUND = 3600.0
DAY = 86400.0
WINDOW = 24
N_BLOCKS = 96
N_ROUNDS = 96  # 4 days per block
N_QUERIES = 300
SHARD_COUNTS = (1, 2, 4)
SEED = 23


def workload() -> list:
    """One fleet, identical across shard counts, in arrival order."""
    rng = np.random.default_rng(SEED)
    times = np.arange(N_ROUNDS) * ROUND
    observations = []
    phases = rng.uniform(0.0, 2.0 * np.pi, N_BLOCKS)
    for block_id in range(N_BLOCKS):
        values = (
            0.5
            + 0.4 * np.sin(2.0 * np.pi * times / DAY + phases[block_id])
            + 0.02 * rng.standard_normal(N_ROUNDS)
        )
        observations.extend(
            (block_id, float(times[r]), float(values[r]))
            for r in range(N_ROUNDS)
        )
    observations.sort(key=lambda triple: (triple[1], triple[0]))
    return observations


def run_level(n_shards: int, observations: list, tmp_dir: Path) -> dict:
    config = ServiceConfig(
        stream=StreamConfig(window_rounds=WINDOW, round_s=ROUND),
        journal_dir=tmp_dir / f"journals-{n_shards}",
        n_shards=n_shards,
        seed=SEED,
    )
    runner = ServiceRunner(config)
    runner.start()
    try:
        batch = config.pump_budget
        t0 = time.perf_counter()
        accepted = 0
        for start in range(0, len(observations), batch):
            report = runner.ingest(observations[start:start + batch])
            accepted += report["accepted"]
        runner.flush()
        ingest_s = time.perf_counter() - t0
        n_shed = sum(
            shard["stats"]["n_shed"]
            for shard in runner.fleet_snapshot()["shards"].values()
        )
        assert n_shed == 0, (n_shards, n_shed)
        accepted -= n_shed
        assert accepted == len(observations), (accepted, len(observations))

        rng = np.random.default_rng(SEED + n_shards)
        targets = rng.integers(0, N_BLOCKS, N_QUERIES)
        latencies = np.empty(N_QUERIES)
        for i, block_id in enumerate(targets):
            q0 = time.perf_counter()
            snapshot = runner.query_block(int(block_id))
            latencies[i] = time.perf_counter() - q0
            assert snapshot is not None and snapshot["n_closed"] >= 1
        return {
            "n_shards": n_shards,
            "observations": accepted,
            "ingest_s": ingest_s,
            "obs_per_s": accepted / ingest_s,
            "query_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "query_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        }
    finally:
        runner.stop(drain=False)


def test_service_shard_scaling(tmp_path, trajectory):
    observations = workload()
    levels = [run_level(n, observations, tmp_path) for n in SHARD_COUNTS]

    lines = [
        f"{'shards':>6} {'obs/s':>10} {'p50 ms':>8} {'p99 ms':>8}"
    ]
    for level in levels:
        lines.append(
            f"{level['n_shards']:>6} {level['obs_per_s']:>10.0f} "
            f"{level['query_p50_ms']:>8.2f} {level['query_p99_ms']:>8.2f}"
        )
    table = "\n".join(lines)
    print(f"\n=== abl_service ===\n{table}")

    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = {
        "workload": {
            "n_blocks": N_BLOCKS,
            "n_rounds": N_ROUNDS,
            "round_s": ROUND,
            "n_queries": N_QUERIES,
            "seed": SEED,
        },
        "cpu_count": os.cpu_count(),
        "levels": levels,
    }
    (RESULTS_DIR / "abl_service.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    for level in levels:
        trajectory.record(
            "abl_service", f"obs_per_s_{level['n_shards']}shard",
            level["obs_per_s"], unit="obs/s", kind="throughput",
        )
        trajectory.record(
            "abl_service", f"query_p99_ms_{level['n_shards']}shard",
            level["query_p99_ms"], unit="ms", kind="latency",
        )

    by_shards = {level["n_shards"]: level for level in levels}
    for level in levels:
        assert level["obs_per_s"] > 0
        # Generous sanity ceiling: a per-block pipe query is local IPC,
        # not a network hop; seconds would mean a wedged shard.
        assert level["query_p99_ms"] < 1000.0, level
    if (os.cpu_count() or 1) >= 4:
        # The acceptance criterion proper: engine work dominates and
        # spreads across cores, so 4 shards must beat 1.
        assert by_shards[4]["obs_per_s"] >= 1.1 * by_shards[1]["obs_per_s"], (
            by_shards[4]["obs_per_s"], by_shards[1]["obs_per_s"]
        )
