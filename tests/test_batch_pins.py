"""Bit-level pins on the batch A12W path.

The in-place and round-chunked fast path must reproduce the
straightforward allocate-per-step implementation bit for bit.  The
reference functions below are that implementation, kept verbatim as an
oracle; each test runs both on the same machine with the same generator
seeds and compares raw bytes, so the pins hold whatever SIMD math loops
or FFT build numpy uses.  Only the int8 labels carry a frozen digest (as
the benchmark's label check does): a change that moves them changes the
measurement itself, not just its speed.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.signal import lfilter

from repro.core.classify import ClassifierConfig, classify_many
from repro.core.estimator import EstimatorConfig, estimate_series
from repro.core.timeseries import trim_to_midnight
from repro.probing import RoundSchedule
from repro.simulation import WorldConfig, generate_world
from repro.simulation.fastsim import (
    adaptive_counts,
    apply_restart_bias,
    designed_mean_availability,
    measure_world,
    synthesize_availability,
)
from repro.simulation.scenarios import SCENARIO_SCHEDULES
from tests.test_estimator import SERIES_FIELDS, reference_estimate_series
from tests.test_rowpool import forced_split, single_slice

LABELS_SHA256 = "58ead6606a0a5ec8af67b142ad508d253381ae78e1254221e4df71e4bb06aa9a"
MEASURE_FIELDS = (
    "labels",
    "phases",
    "dominant_cycles_per_day",
    "diurnal_amplitude",
    "mean_availability",
)


def reference_synthesize_availability(world, indices, times, rng):
    indices = np.asarray(indices, dtype=np.intp)
    day_frac = (times / 86400.0) % 1.0
    x = (day_frac[None, :] - world.onset_frac[indices][:, None]) % 1.0
    up = world.uptime_frac[indices][:, None]
    tau = 0.0625
    window = np.clip(x / tau, 0.0, 1.0) - np.clip((x - up) / tau, 0.0, 1.0)
    lo = world.a_low[indices][:, None]
    hi = world.a_high[indices][:, None]
    a = lo + (hi - lo) * window
    lease_amp = world.lease_amp[indices][:, None]
    if np.any(lease_amp > 0):
        cpd = world.lease_cpd[indices][:, None]
        phase = world.lease_phase[indices][:, None]
        a = a + lease_amp * np.cos(
            2 * np.pi * cpd * times[None, :] / 86400.0 + phase
        )
    sigma = world.noise_sigma[indices][:, None]
    shocks = rng.normal(0.0, 1.0, a.shape) * sigma * 0.55
    noise = lfilter([1.0], [1.0, -0.7], shocks, axis=1)
    return np.clip(a + noise, 0.005, 0.995)


def reference_apply_restart_bias(availability, restart_rounds, rng):
    if len(restart_rounds) == 0:
        return availability
    out = np.array(availability, dtype=np.float64, copy=True)
    bias = rng.normal(0.0, 0.13, size=(out.shape[0], 1))
    n_rounds = out.shape[1]
    for offset, weight in enumerate((1.0, 0.7, 0.45, 0.25)):
        rounds = restart_rounds + offset
        rounds = rounds[rounds < n_rounds]
        out[:, rounds] += bias * weight
    return np.clip(out, 0.005, 0.995)


def reference_adaptive_counts(availability, rng, max_probes=15, missing_fraction=0.05):
    a = np.asarray(availability, dtype=np.float64)
    u = rng.random(a.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        failures = np.floor(np.log(u) / np.log1p(-a))
    failures = np.where(np.isfinite(failures), failures, np.inf)
    totals = np.minimum(failures + 1, max_probes).astype(np.int16)
    positives = (failures + 1 <= max_probes).astype(np.int16)
    if missing_fraction > 0:
        missing = rng.random(a.shape) < missing_fraction
        totals[missing] = 0
        positives[missing] = 0
    return positives, totals


def reference_measure_world(world, schedule, chunk_size=2000, history_error=0.08):
    """measure_world's loop over the reference layers (default configs)."""
    estimator, classifier = EstimatorConfig(), ClassifierConfig()
    times = schedule.times()
    trim = trim_to_midnight(times, schedule.round_s)
    restarts = schedule.restart_rounds()
    n = world.n_blocks
    out = {name: np.zeros(n) for name in MEASURE_FIELDS}
    out["labels"] = np.zeros(n, dtype=np.int8)
    children = np.random.SeedSequence(world.config.seed + 7_777).spawn(
        (n + chunk_size - 1) // chunk_size
    )
    for chunk_no, start in enumerate(range(0, n, chunk_size)):
        idx = np.arange(start, min(start + chunk_size, n))
        rng = np.random.default_rng(children[chunk_no])
        a_true = reference_synthesize_availability(world, idx, times, rng)
        a_probed = reference_apply_restart_bias(a_true, restarts, rng)
        positives, totals = reference_adaptive_counts(a_probed, rng)
        a_init = np.clip(
            designed_mean_availability(world)[idx]
            + rng.normal(0.0, history_error, len(idx)),
            0.02,
            0.99,
        )
        series = reference_estimate_series(
            positives, totals, estimator, restarts, a_init
        )
        batch = classify_many(series["a_short"][:, trim], schedule.round_s, classifier)
        out["labels"][idx] = batch.labels
        out["phases"][idx] = batch.phases
        out["dominant_cycles_per_day"][idx] = batch.dominant_cycles_per_day
        out["diurnal_amplitude"][idx] = batch.diurnal_amplitude
        out["mean_availability"][idx] = a_true.mean(axis=1)
    return out


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def assert_bitwise_equal(actual, expected, name):
    assert actual.dtype == expected.dtype, name
    assert actual.shape == expected.shape, name
    assert actual.tobytes() == expected.tobytes(), name


@pytest.fixture(scope="module")
def schedule():
    a12w = SCENARIO_SCHEDULES["A12W"]
    return RoundSchedule.for_days(
        14, start_s=a12w["start_s"], restart_interval_s=a12w["restart_interval_s"]
    )


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(n_blocks=300, seed=11))


def test_measure_world_matches_reference(world, schedule):
    m = measure_world(world, schedule, chunk_size=128)
    expected = reference_measure_world(world, schedule, chunk_size=128)
    for name in MEASURE_FIELDS:
        assert_bitwise_equal(getattr(m, name), expected[name], name)


def test_measure_world_matches_reference_under_forced_split(world, schedule):
    with forced_split():
        m = measure_world(world, schedule, chunk_size=128)
    with single_slice():
        whole = measure_world(world, schedule, chunk_size=128)
    expected = reference_measure_world(world, schedule, chunk_size=128)
    for name in MEASURE_FIELDS:
        assert_bitwise_equal(getattr(m, name), expected[name], name)
        assert_bitwise_equal(getattr(whole, name), expected[name], name)


def test_measure_world_labels_pinned(world, schedule):
    labels = measure_world(world, schedule).labels
    assert labels.dtype == np.int8 and labels.shape == (300,)
    assert sha256(labels) == LABELS_SHA256


@pytest.mark.parametrize("seed", [2024, 7])
@pytest.mark.parametrize("missing_fraction", [0.05, 0.0])
def test_layers_match_reference(world, schedule, seed, missing_fraction):
    times, restarts = schedule.times(), schedule.restart_rounds()
    indices = np.arange(40, 140)
    assert (world.lease_amp[indices] > 0).any()
    assert (world.lease_amp[indices] == 0).any()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

    a = synthesize_availability(world, indices, times, rng)
    a_ref = reference_synthesize_availability(world, indices, times, ref_rng)
    assert_bitwise_equal(a, a_ref, "availability")
    before = a.copy()
    biased = apply_restart_bias(a, restarts, rng)
    assert_bitwise_equal(
        biased, reference_apply_restart_bias(a_ref, restarts, ref_rng), "biased"
    )
    assert_bitwise_equal(a, before, "input left untouched")
    counts = adaptive_counts(biased, rng, missing_fraction=missing_fraction)
    ref_counts = reference_adaptive_counts(
        biased, ref_rng, missing_fraction=missing_fraction
    )
    assert_bitwise_equal(counts[0], ref_counts[0], "positives")
    assert_bitwise_equal(counts[1], ref_counts[1], "totals")
    # Both sides consumed the same draws.
    assert rng.random() == ref_rng.random()


def test_synthesis_handles_onsets_outside_the_unit_day(world, schedule):
    # Onsets past [0, 1] take the general remainder path.
    shifted = dataclasses.replace(world, onset_frac=world.onset_frac * 3.0 - 1.0)
    times, indices = schedule.times(), np.arange(0, 300, 3)
    a = synthesize_availability(shifted, indices, times, np.random.default_rng(5))
    expected = reference_synthesize_availability(
        shifted, indices, times, np.random.default_rng(5)
    )
    assert_bitwise_equal(a, expected, "availability")


def test_restart_bias_without_restarts_returns_input(world, schedule):
    a = synthesize_availability(
        world, np.arange(10), schedule.times(), np.random.default_rng(1)
    )
    assert apply_restart_bias(a, np.array([], dtype=np.int64), np.random.default_rng(1)) is a


def run_layers(world, schedule, indices, seed, reference=False):
    """Every batch layer on ``indices``, one generator, as measure_world
    chains them; a NaN row enters the classifier when there are two rows."""
    times, restarts = schedule.times(), schedule.restart_rounds()
    trim = trim_to_midnight(times, schedule.round_s)
    rng = np.random.default_rng(seed)
    a0 = np.clip(designed_mean_availability(world)[indices], 0.02, 0.99)
    if reference:
        a = reference_synthesize_availability(world, indices, times, rng)
        biased = reference_apply_restart_bias(a, restarts, rng)
        counts = reference_adaptive_counts(biased, rng)
        series = reference_estimate_series(*counts, EstimatorConfig(), restarts, a0)
    else:
        a = synthesize_availability(world, indices, times, rng)
        biased = apply_restart_bias(a, restarts, rng)
        counts = adaptive_counts(biased, rng)
        series = estimate_series(
            *counts, restart_rounds=restarts, initial_availability=a0
        )
        series = {name: getattr(series, name) for name in SERIES_FIELDS}
    matrix = series["a_short"][:, trim].copy()
    if len(matrix) >= 2:
        matrix[1, 7] = np.nan
    batch = classify_many(matrix, schedule.round_s)
    out = {"availability": a, "biased": biased, "positives": counts[0],
           "totals": counts[1], **series}
    for name in ("labels", "phases", "diurnal_k", "diurnal_amplitude",
                 "dominant_k", "dominant_cycles_per_day"):
        out[name] = getattr(batch, name)
    return out


@pytest.mark.parametrize("tile", [1, 2])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 7])
def test_layers_bitwise_under_forced_split(world, schedule, tile, n_rows):
    # Only the last row has a lease cosine, so it sits in one slice.
    plain = np.flatnonzero(world.lease_amp == 0)[:n_rows]
    indices = np.concatenate([plain[:-1], np.flatnonzero(world.lease_amp)[:1]])
    indices = indices[:n_rows]
    with forced_split(tile=tile):
        split = run_layers(world, schedule, indices, seed=n_rows)
    with single_slice():
        whole = run_layers(world, schedule, indices, seed=n_rows)
    expected = run_layers(world, schedule, indices, seed=n_rows, reference=True)
    if n_rows >= 2:
        assert split["labels"][1] == -1
    for name, want in expected.items():
        assert_bitwise_equal(split[name], want, name)
        assert_bitwise_equal(whole[name], want, name)
