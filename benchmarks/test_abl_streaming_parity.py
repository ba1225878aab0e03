"""Ablation: streaming engine versus batch classification.

Two claims carry the streaming subsystem.  **Parity**: every window the
engine closes must produce a report bit-identical to the batch path
(`clean_observations` + `classify_series`) over the same observations —
on clean streams and on streams degraded by the fault injectors.
**Cost**: maintaining the spectral state incrementally (sliding DFT at
the tracked bins) must beat re-running the batch classifier per round,
since that O(tracked bins) recurrence is the engine's reason to exist.

The table reports window counts with parity tallies and the per-round
cost of three strategies: streaming ingestion (ring + sliding DFT +
closes), a naive full rfft of the trailing window every round, and a
naive full reclassification every round.  A last row is the rate of
``StreamEngine.ingest_batch`` on a mixed-block fleet in lockstep (every
block once per round, 2% of probes missing, 128-observation batches):
the served shape, where the common step runs as array operations across
blocks.
"""

import time
from pathlib import Path

import numpy as np

from repro.core.classify import classify_series, reports_equal
from repro.faults import FaultConfig
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry, write_json_snapshot
from repro.stream import (
    ListSink,
    StreamConfig,
    StreamEngine,
    WindowClosed,
    batch_window_report,
)

RESULTS_DIR = Path(__file__).parent / "results"

N_BLOCKS = 12
N_DAYS = 10
SEED = 33
FLEET_BLOCKS = 256
FLEET_DAYS = 4
BATCH = 128
ROUND = 660.0
DAY = 86400.0

FAULTS = FaultConfig(
    round_drop_rate=0.05,
    round_duplicate_rate=0.05,
    gaps_per_day=1.0,
    clock_jitter_s=60.0,
    seed=7,
)


def population():
    """Synthetic per-round streams: two diurnal blocks to one flat."""
    rng = np.random.default_rng(SEED)
    n = int(N_DAYS * DAY / ROUND)
    times = np.arange(n) * ROUND
    streams = {}
    for block in range(N_BLOCKS):
        if block % 3 == 2:
            values = 0.5 + 0.03 * rng.standard_normal(n)
        else:
            amplitude = rng.uniform(0.2, 0.45)
            phase = rng.uniform(0, 2 * np.pi)
            values = (
                0.5
                + amplitude * np.sin(2 * np.pi * times / DAY + phase)
                + 0.02 * rng.standard_normal(n)
            )
        streams[block] = (times, values)
    return streams


def degrade(streams):
    plan = FaultPlan(FAULTS)
    return {
        block: plan.for_block(block).degrade_stream(t, v, ROUND)
        for block, (t, v) in streams.items()
    }


def parity_tally(streams, config, metrics=None):
    """(windows closed, windows whose report+quality match the oracle)."""
    n_windows = n_equal = 0
    for block, (times, values) in streams.items():
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink], metrics=metrics)
        engine.ingest_many(block, times, values)
        engine.flush()
        for event in sink.of_type(WindowClosed):
            n_windows += 1
            want, want_quality = batch_window_report(
                times, values, event.window_start_round, event.n_rounds,
                config,
            )
            if reports_equal(event.report, want) and event.quality == want_quality:
                n_equal += 1
    return n_windows, n_equal


def per_round_costs(config, times, values):
    """µs/round for streaming ingest vs naive per-round recomputation."""
    n = config.window_rounds

    engine = StreamEngine(config)
    t0 = time.perf_counter()
    engine.ingest_many(0, times, values)
    engine.flush()
    stream_us = (time.perf_counter() - t0) / len(times) * 1e6

    # Naive per-round rfft of the trailing window (amplitude refresh only).
    t0 = time.perf_counter()
    for r in range(n, len(values)):
        np.abs(np.fft.rfft(values[r - n + 1: r + 1]))
    rfft_us = (time.perf_counter() - t0) / (len(values) - n) * 1e6

    # Naive per-round full reclassification, on a subsample for runtime.
    sample = range(n, len(values), 10)
    t0 = time.perf_counter()
    for r in sample:
        classify_series(values[r - n + 1: r + 1], config.round_s,
                        config.classifier)
    reclass_us = (time.perf_counter() - t0) / len(sample) * 1e6

    return stream_us, rfft_us, reclass_us


def mixed_batch_rate(config):
    """obs/s of ``ingest_batch`` over a lockstep mixed-block fleet."""
    rng = np.random.default_rng(SEED)
    n_rounds = int(FLEET_DAYS * DAY / ROUND)
    rounds = np.repeat(np.arange(n_rounds), FLEET_BLOCKS)
    blocks = np.tile(np.arange(FLEET_BLOCKS), n_rounds)
    keep = rng.random(len(rounds)) >= 0.02
    rounds, blocks = rounds[keep], blocks[keep]
    times = rounds * ROUND
    phase = rng.uniform(0, 2 * np.pi, FLEET_BLOCKS)[blocks]
    values = 0.5 + 0.3 * np.sin(2 * np.pi * times / DAY + phase)
    engine = StreamEngine(config)
    t0 = time.perf_counter()
    for lo in range(0, len(times), BATCH):
        hi = lo + BATCH
        engine.ingest_batch(blocks[lo:hi], times[lo:hi], values[lo:hi])
    engine.flush()
    return len(times) / (time.perf_counter() - t0)


def run_ablation():
    config = StreamConfig.for_days(2.0, hop_days=1.0, label_dwell=1)
    clean = population()
    faulted = degrade(clean)

    # One registry across every engine run: the exported snapshot is the
    # campaign-level telemetry CI uploads as an artifact.
    registry = MetricsRegistry()
    clean_tally = parity_tally(clean, config, metrics=registry)
    faulted_tally = parity_tally(faulted, config, metrics=registry)
    costs = per_round_costs(config, *clean[0])
    return clean_tally, faulted_tally, costs, mixed_batch_rate(config), registry


def test_abl_streaming_parity(benchmark, record_output, trajectory):
    clean_tally, faulted_tally, costs, batch_rate, registry = (
        benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    )
    stream_us, rfft_us, reclass_us = costs

    RESULTS_DIR.mkdir(exist_ok=True)
    write_json_snapshot(
        RESULTS_DIR / "abl_streaming_parity_metrics.json", registry
    )

    lines = [f"{'streams':>10}{'windows':>9}{'parity':>9}"]
    for name, (n_windows, n_equal) in (
        ("clean", clean_tally),
        ("faulted", faulted_tally),
    ):
        lines.append(f"{name:>10}{n_windows:>9}{f'{n_equal}/{n_windows}':>9}")
    lines.append("")
    lines.append(f"{'per-round strategy':>26}{'us/round':>10}{'rounds/s':>12}")
    for name, us in (
        ("streaming ingest", stream_us),
        ("naive rfft", rfft_us),
        ("naive reclassify", reclass_us),
    ):
        lines.append(f"{name:>26}{us:>10.1f}{1e6 / us:>12.0f}")
    lines.append("")
    lines.append(f"speedup vs naive reclassify: {reclass_us / stream_us:.1f}x")
    lines.append(
        f"mixed-block ingest_batch ({FLEET_BLOCKS} blocks, batches of "
        f"{BATCH}): {batch_rate:.0f} obs/s"
    )
    record_output("abl_streaming_parity", "\n".join(lines))
    trajectory.record(
        "abl_streaming_parity", "stream_rounds_per_s",
        1e6 / stream_us, unit="rounds/s", kind="throughput",
    )
    trajectory.record(
        "abl_streaming_parity", "batch_obs_per_s",
        batch_rate, unit="obs/s", kind="throughput",
    )
    trajectory.record(
        "abl_streaming_parity", "reclassify_speedup",
        reclass_us / stream_us, unit="x", kind="ratio",
    )

    # Parity is exact, not approximate: every window, clean and faulted.
    assert clean_tally[0] > 0 and clean_tally[1] == clean_tally[0]
    assert faulted_tally[0] > 0 and faulted_tally[1] == faulted_tally[0]
    # The incremental path must clearly beat per-round reclassification.
    assert stream_us < reclass_us / 2, (
        f"streaming {stream_us:.1f}us/round vs reclassify "
        f"{reclass_us:.1f}us/round"
    )
