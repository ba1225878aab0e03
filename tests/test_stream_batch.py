"""Chunking invariance of the batched streaming path.

``StreamEngine.ingest_batch`` takes the common per-observation step for
many blocks with array operations and walks the rest in arrival order.
Its contract is exactness: however a stream is cut into batches, the
events (compared by ``repr``), snapshots, phase map, DFT coefficients
and arrival-order tallies equal feeding it one observation at a time.
The same holds one layer up for ``AdmissionController.submit_batch``
against per-observation ``submit``: same backpressure engagements, same
shed episodes, same ``ShedRecord`` log.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.stream import (
    AdmissionController,
    ListSink,
    OverloadConfig,
    StreamConfig,
    StreamEngine,
)

ROUND = 660.0
DAY = 86400.0
WINDOW = int(DAY / ROUND) + 1  # the shortest window with a diurnal bin


def make_stream(seed, n_blocks, n_rounds, lateness, rates):
    """A lockstep multi-block stream with every kind of irregularity."""
    p_missing, p_dup, p_late, p_bad, p_jump = rates
    rng = np.random.default_rng(seed)
    out = []
    for r in range(n_rounds):
        for b in rng.permutation(n_blocks):
            if rng.random() < p_missing:
                continue
            rr = r
            if lateness and rng.random() < 0.2:
                rr = max(0, r - int(rng.integers(1, lateness + 1)))
            if rng.random() < p_late:
                rr = r - int(rng.integers(lateness + 2, lateness + 6))
            t = rr * ROUND + float(rng.normal(0.0, 60.0))
            v = 0.5 + 0.4 * np.sin(2 * np.pi * rr * ROUND / DAY + b)
            v += 0.05 * float(rng.standard_normal())
            if rng.random() < p_bad:
                if rng.random() < 0.5:
                    v = float(rng.choice([np.nan, np.inf]))
                else:
                    t = float(rng.choice([np.nan, -np.inf]))
            out.append((int(b) * 11 + 5, float(t), float(v)))
            if rng.random() < p_dup:
                out.append((int(b) * 11 + 5, float(t) + 1.0, float(v) + 0.01))
        if rng.random() < p_jump:
            # A block never seen before, far ahead, then a jump of an
            # existing block past its ring capacity.
            out.append((1000 + r, (r + 3 * WINDOW) * ROUND, 0.3))
            out.append((5, (r + 3 * WINDOW) * ROUND, 0.6))
    return out


def cut(obs, seed, max_chunk):
    """Random chunk boundaries over the observation list."""
    rng = np.random.default_rng(seed)
    i = 0
    while i < len(obs):
        k = int(rng.integers(1, max_chunk + 1))
        yield obs[i: i + k]
        i += k


def columns(chunk):
    return (
        [o[0] for o in chunk], [o[1] for o in chunk], [o[2] for o in chunk]
    )


def run_engine(config, head, tail):
    """Ingest the ``head`` chunks, flush, the ``tail`` chunks, flush all."""
    registry = MetricsRegistry()
    sink = ListSink()
    engine = StreamEngine(config, sinks=[sink], metrics=registry)
    for chunk in head:
        engine.ingest_batch(*columns(chunk))
    engine.flush()
    for chunk in tail:
        engine.ingest_batch(*columns(chunk))
    engine.flush(close_partial=True)
    return engine, sink, registry


def observable(engine, sink, registry):
    state = [
        entry for entry in registry.state()
        if entry["name"] != "stream_close_seconds"
    ]
    n_rows = len(engine.blocks())
    return (
        [repr(e) for e in sink.events],
        [repr(engine.snapshot(b)) for b in engine.blocks()],
        repr(engine.phase_map()),
        engine._dft.table[:n_rows].tobytes(),
        engine.n_invalid,
        repr(state),
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_blocks=st.integers(1, 12),
    extra_rounds=st.integers(0, 2 * WINDOW),
    lateness=st.integers(0, 3),
    hop=st.sampled_from([None, 33, WINDOW]),
    reseed=st.sampled_from([None, 17]),
    max_gap=st.sampled_from([None, 2]),
    rates=st.tuples(
        st.sampled_from([0.0, 0.02, 0.2]),
        st.sampled_from([0.0, 0.02]),
        st.sampled_from([0.0, 0.01]),
        st.sampled_from([0.0, 0.01]),
        st.sampled_from([0.0, 0.005]),
    ),
    max_chunk=st.sampled_from([2, 9, 64, 1000]),
    flush_frac=st.floats(0.0, 1.0),
)
def test_any_chunking_equals_chunks_of_one(
    seed, n_blocks, extra_rounds, lateness, hop, reseed, max_gap, rates,
    max_chunk, flush_frac,
):
    config = StreamConfig(
        window_rounds=WINDOW,
        hop_rounds=hop,
        lateness_rounds=lateness,
        reseed_every=reseed,
        max_fill_gap=max_gap,
        label_dwell=1,
    )
    obs = make_stream(seed, n_blocks, WINDOW + extra_rounds, lateness, rates)
    at = int(flush_frac * len(obs))
    head, tail = obs[:at], obs[at:]
    one = run_engine(config, cut(head, seed, 1), cut(tail, seed, 1))
    many = run_engine(
        config, cut(head, seed, max_chunk), cut(tail, seed + 1, max_chunk)
    )
    assert observable(*many) == observable(*one)


def test_one_batch_equals_scalar_ingest():
    """The whole stream as one batch equals ``ingest`` per observation."""
    config = StreamConfig(window_rounds=WINDOW, hop_rounds=40,
                          lateness_rounds=2, label_dwell=1)
    obs = make_stream(3, 20, 3 * WINDOW, 2, (0.02, 0.02, 0.01, 0.01, 0.0))
    sink_a, sink_b = ListSink(), ListSink()
    a = StreamEngine(config, sinks=[sink_a])
    for o in obs:
        a.ingest(*o)
    b = StreamEngine(config, sinks=[sink_b])
    b.ingest_batch(*columns(obs))
    a.flush()
    b.flush()
    assert [repr(e) for e in sink_b.events] == [repr(e) for e in sink_a.events]
    assert len(sink_a.events) > 100
    for block in a.blocks():
        assert repr(b.snapshot(block)) == repr(a.snapshot(block))


def test_new_blocks_get_rows_in_arrival_order():
    config = StreamConfig(window_rounds=WINDOW)
    engine = StreamEngine(config)
    engine.ingest_batch([9, 4, 9, 7, 4], [0.0] * 5, [0.5] * 5)
    assert list(engine._rows) == [9, 4, 7]
    assert engine.blocks() == [4, 7, 9]


def test_invalid_first_sight_creates_no_block():
    engine = StreamEngine(StreamConfig(window_rounds=WINDOW))
    engine.ingest_batch([1, 2], [float("nan"), 0.0], [0.5, float("inf")])
    assert engine.blocks() == []
    assert engine.n_invalid == 2


def overload_stream(seed, n):
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, 6, n)
    rounds = np.arange(n) // 6 + 2 * WINDOW
    times = rounds * ROUND
    values = 0.5 + 0.3 * np.sin(2 * np.pi * times / DAY + blocks)
    return blocks, times, values


def primed_controller(seed, capacity):
    """A controller whose engine has closed windows, so shed tiers vary."""
    sink = ListSink()
    engine = StreamEngine(StreamConfig(window_rounds=WINDOW, label_dwell=1),
                          sinks=[sink])
    history = np.arange(2 * WINDOW) * ROUND
    for block in range(6):
        engine.ingest_many(
            block, history, 0.5 + 0.3 * np.sin(2 * np.pi * history / DAY)
        )
    config = OverloadConfig(capacity=capacity, seed=seed,
                            edge_guard_rounds=2, stable_closes=1)
    return AdmissionController(engine, config), sink


def compare_submits(seed, capacity, max_chunk, pump_every, budget):
    """Feed one stream per observation and in batches; assert they agree."""
    blocks, times, values = overload_stream(seed, 600)
    rng = np.random.default_rng(seed)
    bounds = [0]
    while bounds[-1] < len(times):
        step = int(rng.integers(1, max_chunk + 1))
        bounds.append(min(len(times), bounds[-1] + step))
    scalar, scalar_sink = primed_controller(seed, capacity)
    batch, batch_sink = primed_controller(seed, capacity)
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for i in range(lo, hi):
            scalar.submit(int(blocks[i]), float(times[i]), float(values[i]))
        batch.submit_batch(blocks[lo:hi], times[lo:hi], values[lo:hi])
        assert batch.depth == scalar.depth
        assert batch.backpressure() == scalar.backpressure()
        if k % pump_every == 0:
            assert batch.pump(budget) == scalar.pump(budget)
    scalar.flush()
    batch.flush()
    assert batch.shed_log() == scalar.shed_log()
    assert batch.stats() == scalar.stats()
    assert [repr(e) for e in batch_sink.events] == [
        repr(e) for e in scalar_sink.events
    ]
    return scalar


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 1000),
    capacity=st.sampled_from([8, 40, 100]),
    max_chunk=st.sampled_from([3, 50, 400]),
    pump_every=st.integers(1, 5),
    budget=st.sampled_from([1, 7, 60]),
)
def test_batch_submit_sheds_like_per_observation_submit(
    seed, capacity, max_chunk, pump_every, budget,
):
    compare_submits(seed, capacity, max_chunk, pump_every, budget)


def test_batch_crossing_watermark_and_capacity():
    """Single batches far past capacity: several engagements and sheds."""
    controller = compare_submits(7, 40, 400, 3, 7)
    assert controller.n_episodes > 1
    assert controller.n_engagements > 1
    assert controller.n_shed > 0
