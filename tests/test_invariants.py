"""Cross-module property-based tests on core invariants.

These guard the contracts the analyses silently rely on: estimator
outputs are probabilities, classification is deterministic and invariant
to irrelevant transformations, phase behaves like an angle, and the
vectorized paths agree with their scalar counterparts under arbitrary
inputs (not just the happy paths unit tests exercise).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import classify_series
from repro.core.estimator import AvailabilityEstimator, estimate_series
from repro.core.spectral import compute_spectrum, diurnal_bin
from repro.stats.anova import anova_lm
from repro.stats.descriptive import pearson

ROUND = 660.0
DAY = 86400.0


def daily(n_days, amp, phase, noise, seed):
    n = int(n_days * DAY / ROUND)
    t = np.arange(n) * ROUND
    rng = np.random.default_rng(seed)
    return 0.5 + amp * np.cos(2 * np.pi * t / DAY + phase) + rng.normal(0, noise, n)


@settings(max_examples=25, deadline=None)
@given(
    counts=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=5,
        max_size=300,
    )
)
def test_vectorized_estimator_matches_scalar_everywhere(counts):
    totals = np.array([t for t, _ in counts])
    positives = np.array([min(p, t) for t, p in counts])
    batch = estimate_series(positives, totals)
    est = AvailabilityEstimator()
    for r in range(len(counts)):
        est.observe(int(positives[r]), int(totals[r]))
        assert batch.a_short[r] == est.a_short
        assert batch.a_long[r] == est.a_long
        assert batch.a_operational[r] == est.a_operational
        assert batch.deviation[r] == est.deviation


@settings(max_examples=20, deadline=None)
@given(
    amp=st.floats(min_value=0.05, max_value=0.4),
    phase=st.floats(min_value=-3.1, max_value=3.1),
    seed=st.integers(0, 10_000),
)
def test_classification_invariant_to_offset_and_scale(amp, phase, seed):
    """Adding a constant or scaling the series must not change the label:
    diurnalness is about *relative* spectral structure."""
    values = daily(14, amp, phase, amp / 15, seed)
    base = classify_series(values, ROUND)
    shifted = classify_series(values + 0.17, ROUND)
    scaled = classify_series(values * 2.5, ROUND)
    assert shifted.label is base.label
    assert scaled.label is base.label
    assert shifted.phase == pytest.approx(base.phase, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    amp=st.floats(min_value=0.05, max_value=0.4),
    phase=st.floats(min_value=-3.1, max_value=3.1),
    shift_days=st.integers(min_value=1, max_value=5),
    seed=st.integers(0, 10_000),
)
def test_whole_day_shift_preserves_phase(amp, phase, shift_days, seed):
    """Dropping whole days from the front must not move the 1 c/d phase
    (this is why the paper trims to midnight)."""
    values = daily(21, amp, phase, 0.0, seed)
    per_day = int(round(DAY / ROUND))
    full = classify_series(values[: 14 * per_day], ROUND)
    shifted = classify_series(
        values[shift_days * per_day : (14 + shift_days) * per_day], ROUND
    )
    delta = np.angle(np.exp(1j * (full.phase - shifted.phase)))
    assert abs(delta) < 0.25


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=200),
    seed=st.integers(0, 10_000),
)
def test_anova_p_values_are_probabilities(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(0, 1, n)
    a = rng.normal(0, 1, n)
    b = rng.normal(0, 1, n)
    table = anova_lm(y, {"a": a, "b": b}, ["a", "b", "a:b"])
    for row in table.rows:
        assert 0.0 <= row.p_value <= 1.0
        assert row.sum_sq >= -1e-9


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=100),
    seed=st.integers(0, 10_000),
    scale=st.floats(min_value=0.01, max_value=100.0),
    offset=st.floats(min_value=-50.0, max_value=50.0),
)
def test_pearson_affine_invariance(n, seed, scale, offset):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, n)
    y = rng.normal(0, 1, n)
    base = pearson(x, y)
    transformed = pearson(x * scale + offset, y)
    assert transformed == pytest.approx(base, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    days=st.integers(min_value=2, max_value=35),
)
def test_diurnal_bin_matches_frequency(days):
    """Bin k = N_d must always correspond to ~1 cycle/day."""
    n = int(days * DAY / ROUND)
    k = diurnal_bin(n, ROUND)
    spectrum = compute_spectrum(np.zeros(n), ROUND)
    assert spectrum.cycles_per_day(k) == pytest.approx(1.0, abs=0.51 / days)
