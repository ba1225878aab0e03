"""Ablation: throughput of the batch A12W pipeline, and its exactness.

``measure_world`` is the path every global analysis runs: synthesize each
block's availability, apply the restart bias, draw adaptive-probing
counts, run the EWMA estimators, classify.  The estimator walks the
rounds in cache-sized chunks with per-round gain arrays instead of the
per-round masked update it replaced, so this benchmark checks both
claims on one world: the chunked kernel equals the masked per-round loop
bit for bit on all four series, and so does its short-only run (the one
``measure_world`` makes, which computes Â_s alone) on ``a_short``; and the
whole pipeline's rate in blocks per second (recorded in the perf
trajectory).  Each layer also spreads
its rows over the row pool's threads, one per CPU in the affinity mask;
the world is measured with the pool forced down to one worker and at the
machine's count, and the two must agree bit for bit.

The table lists the time of each layer on one chunk of the world, the
short-only kernel and the masked reference loop beside the full kernel,
and the end-to-end rate with
one worker and with all of them.
"""

import time

import numpy as np
import pytest

from repro.core import rowpool
from repro.core.estimator import EstimatorConfig, estimate_series
from repro.probing import RoundSchedule
from repro.simulation import WorldConfig, generate_world
from repro.simulation.fastsim import (
    adaptive_counts,
    apply_restart_bias,
    measure_world,
    synthesize_availability,
)
from repro.simulation.scenarios import SCENARIO_SCHEDULES
from tests.test_batch_pins import MEASURE_FIELDS
from tests.test_estimator import SERIES_FIELDS, reference_estimate_series

N_BLOCKS = 1000
N_DAYS = 14
SEED = 21
REPEATS = 3


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def run_ablation():
    a12w = SCENARIO_SCHEDULES["A12W"]
    schedule = RoundSchedule.for_days(
        N_DAYS, start_s=a12w["start_s"],
        restart_interval_s=a12w["restart_interval_s"],
    )
    world = generate_world(WorldConfig(n_blocks=N_BLOCKS, seed=SEED))
    restarts = schedule.restart_rounds()
    config = EstimatorConfig()
    measure_world(world, schedule)  # warm-up: lazy imports, FFT plans

    layers = {}
    rng = np.random.default_rng(SEED)
    a_true, layers["synthesize_availability"] = timed(
        synthesize_availability, world, np.arange(N_BLOCKS), schedule.times(), rng
    )
    a_probed, layers["apply_restart_bias"] = timed(
        apply_restart_bias, a_true, restarts, rng
    )
    (positives, totals), layers["adaptive_counts"] = timed(
        adaptive_counts, a_probed, rng
    )
    a0 = np.clip(rng.uniform(0.0, 1.0, N_BLOCKS), 0.02, 0.99)
    series, layers["estimate_series"] = timed(
        estimate_series, positives, totals, config,
        restart_rounds=restarts, initial_availability=a0,
    )
    short, layers["estimate_series short_only"] = timed(
        estimate_series, positives, totals, config,
        restart_rounds=restarts, initial_availability=a0, short_only=True,
    )
    reference, layers["masked per-round loop"] = timed(
        reference_estimate_series, positives, totals, config, restarts, a0
    )
    mismatched = [
        name for name in SERIES_FIELDS
        if getattr(series, name).tobytes() != reference[name].tobytes()
    ]
    if short.a_short.tobytes() != reference["a_short"].tobytes():
        mismatched.append("a_short (short_only)")

    world_s = {}
    measured = {}
    for workers in (1, rowpool.worker_count()):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rowpool, "_workers", workers)
            runs = []
            for _ in range(REPEATS):
                measured[workers], seconds = timed(measure_world, world, schedule)
                runs.append(seconds)
        world_s[workers] = float(np.median(runs))
    serial, parallel = measured[1], measured[rowpool.worker_count()]
    split_equal = all(
        getattr(serial, name).tobytes() == getattr(parallel, name).tobytes()
        for name in MEASURE_FIELDS
    )
    return layers, mismatched, world_s, split_equal, len(schedule.times())


def test_abl_batch_pipeline(benchmark, record_output, trajectory):
    layers, mismatched, world_s, split_equal, n_rounds = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    workers = rowpool.worker_count()
    blocks_per_s = N_BLOCKS / world_s[workers]

    lines = [f"world: {N_BLOCKS} blocks x {n_rounds} rounds (A12W, {N_DAYS} days)"]
    lines.append(f"{'layer':>28}{'s':>9}")
    for name, seconds in layers.items():
        lines.append(f"{name:>28}{seconds:>9.3f}")
    lines.append("")
    lines.append(
        f"estimator speedup vs masked loop: "
        f"{layers['masked per-round loop'] / layers['estimate_series']:.1f}x"
    )
    lines.append(
        f"series equal to the masked loop bit for bit: "
        f"{len(SERIES_FIELDS) + 1 - len(mismatched)}/{len(SERIES_FIELDS) + 1} "
        f"(four full, a_short of short_only)"
    )
    for n, seconds in world_s.items():
        lines.append(
            f"measure_world, {n} worker{'s' if n > 1 else ''}: {seconds:.3f} s "
            f"(median of {REPEATS}), {N_BLOCKS / seconds:.0f} blocks/s"
        )
    lines.append(
        f"row pool: {workers} workers (CPU affinity mask); "
        f"outputs equal to 1 worker bit for bit: {split_equal}"
    )
    record_output("abl_batch_pipeline", "\n".join(lines))
    trajectory.record(
        "abl_batch_pipeline", "blocks_per_s", blocks_per_s,
        unit="blocks/s", kind="throughput",
    )

    assert mismatched == []
    assert split_equal
