"""Tests for the vectorized scale path, including its fidelity to the
address-level prober it summarizes."""

import tracemalloc

import numpy as np
import pytest

from repro.core import rowpool
from repro.net import Block24, make_always_on, make_dead, merge_behaviors
from repro.probing import AdaptiveProber, RoundSchedule
from repro.probing.prober import FixedAvailability
from repro.simulation import WorldConfig, generate_world
from repro.simulation.fastsim import (
    adaptive_counts,
    apply_restart_bias,
    designed_mean_availability,
    measure_world,
    synthesize_availability,
)
from repro.simulation.scenarios import SCENARIO_SCHEDULES


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(n_blocks=1500, seed=3))


class TestSynthesizeAvailability:
    def test_shape_and_range(self, world):
        times = RoundSchedule.for_days(3).times()
        a = synthesize_availability(world, np.arange(50), times, np.random.default_rng(0))
        assert a.shape == (50, len(times))
        assert (a > 0).all() and (a < 1).all()

    def test_diurnal_blocks_oscillate_daily(self, world):
        times = RoundSchedule.for_days(7).times()
        idx = np.flatnonzero(world.is_diurnal)[:20]
        a = synthesize_availability(world, idx, times, np.random.default_rng(1))
        day = (times // 86400).astype(int)
        for row in range(20):
            daily_max = np.array([a[row][day == d].max() for d in range(7)])
            daily_min = np.array([a[row][day == d].min() for d in range(7)])
            assert (daily_max - daily_min).mean() > 0.15

    def test_mean_matches_design(self, world):
        times = RoundSchedule.for_days(7).times()
        idx = np.arange(100)
        a = synthesize_availability(world, idx, times, np.random.default_rng(2))
        lease_free = world.lease_amp[idx] < 0.01
        expected = designed_mean_availability(world)[idx]
        got = a.mean(axis=1)
        err = np.abs(got - expected)[lease_free]
        assert np.median(err) < 0.05


class TestAdaptiveCounts:
    def test_counts_consistent(self):
        rng = np.random.default_rng(0)
        a = np.full((10, 500), 0.5)
        p, t = adaptive_counts(a, rng, missing_fraction=0.0)
        assert ((p == 1) | (p == 0)).all()
        assert (t >= 1).all() and (t <= 15).all()
        assert (p[t == 15] <= 1).all()

    def test_ratio_unbiased(self):
        rng = np.random.default_rng(1)
        for a_true in (0.2, 0.5, 0.9):
            a = np.full((1, 20000), a_true)
            p, t = adaptive_counts(a, rng, missing_fraction=0.0)
            assert p.sum() / t.sum() == pytest.approx(a_true, abs=0.02)

    def test_missing_fraction(self):
        rng = np.random.default_rng(2)
        a = np.full((20, 1000), 0.7)
        p, t = adaptive_counts(a, rng, missing_fraction=0.1)
        assert (t == 0).mean() == pytest.approx(0.1, abs=0.02)
        assert (p[t == 0] == 0).all()

    @pytest.mark.parametrize("fraction", [1.5, -0.1, float("nan")])
    def test_rejects_missing_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="missing_fraction"):
            adaptive_counts(
                np.full((2, 10), 0.5), np.random.default_rng(0),
                missing_fraction=fraction,
            )

    def test_measure_world_rejects_bad_missing_fraction(self):
        world = generate_world(WorldConfig(n_blocks=5, seed=1))
        with pytest.raises(ValueError, match="missing_fraction"):
            measure_world(world, RoundSchedule.for_days(2), missing_fraction=1.5)

    def test_extreme_availability(self):
        rng = np.random.default_rng(3)
        p, t = adaptive_counts(np.full((1, 100), 0.999), rng, missing_fraction=0.0)
        assert (t == 1).all() and (p == 1).all()
        p, t = adaptive_counts(np.full((1, 100), 0.001), rng, missing_fraction=0.0)
        # P(success within 15 probes) = 1.5%, so nearly every round runs
        # to the cap and comes back empty.
        assert (t == 15).mean() > 0.9 and (p == 0).mean() > 0.9

    def test_matches_real_prober_distribution(self):
        """The geometric-cap approximation must match the address-level
        prober's per-round probe counts for a live block."""
        a_true = 0.4
        n_rounds = 2000
        behavior = merge_behaviors(
            make_always_on(100, p_response=a_true), make_dead(156)
        )
        block = Block24(1, behavior)
        schedule = RoundSchedule(n_rounds)
        oracle = block.realize(schedule.times(), np.random.default_rng(4))
        prober = AdaptiveProber(oracle.ever_active)
        log = prober.run(oracle, schedule, FixedAvailability(a_true))

        rng = np.random.default_rng(5)
        a = np.full((1, n_rounds), a_true)
        p_fast, t_fast = adaptive_counts(a, rng, missing_fraction=0.0)

        assert t_fast.mean() == pytest.approx(log.totals.mean(), rel=0.1)
        assert p_fast.mean() == pytest.approx(log.positives.mean(), rel=0.05)


class TestRestartBias:
    def test_no_restarts_no_change(self):
        a = np.full((3, 100), 0.5)
        out = apply_restart_bias(a, np.array([], dtype=int), np.random.default_rng(0))
        assert out is a

    def test_bias_decays(self):
        a = np.full((200, 100), 0.5)
        restarts = np.array([50])
        out = apply_restart_bias(a, restarts, np.random.default_rng(1))
        d0 = np.abs(out[:, 50] - 0.5).mean()
        d3 = np.abs(out[:, 53] - 0.5).mean()
        assert d0 > d3 > 0
        assert np.abs(out[:, 40] - 0.5).max() == 0

    def test_restart_near_end_clipped(self):
        a = np.full((2, 52), 0.5)
        out = apply_restart_bias(a, np.array([50]), np.random.default_rng(2))
        assert out.shape == a.shape

    def test_values_stay_in_unit_interval(self):
        a = np.full((50, 100), 0.99)
        out = apply_restart_bias(a, np.array([10, 40, 70]), np.random.default_rng(3))
        assert (out > 0).all() and (out < 1).all()

    def test_rejects_negative_restart_rounds(self):
        # A negative index would wrap and bias the last rounds too.
        a = np.full((3, 100), 0.5)
        with pytest.raises(ValueError, match="restart_rounds must be non-negative"):
            apply_restart_bias(a, np.array([10, -2]), np.random.default_rng(0))

    @pytest.mark.parametrize("restarts", [[], [0, 30, 98]])
    def test_out_writes_in_place(self, restarts):
        a = np.random.default_rng(4).random((5, 100))
        restarts = np.array(restarts, dtype=np.int64)
        expected = apply_restart_bias(a.copy(), restarts, np.random.default_rng(5))
        assert apply_restart_bias(a, restarts, np.random.default_rng(5), out=a) is a
        assert a.tobytes() == expected.tobytes()
        out = np.empty_like(a)
        src = a.copy()
        assert apply_restart_bias(src, restarts, np.random.default_rng(5), out=out) is out
        assert src.tobytes() == a.tobytes()


class TestMeasureWorld:
    def test_global_fractions_match_paper_shape(self, world):
        schedule = RoundSchedule.for_days(14, restart_interval_s=5.5 * 3600)
        m = measure_world(world, schedule)
        # Paper: 11% strict, 25% either.  Allow generous tolerance at this
        # small world size.
        assert 0.08 < m.fraction_strict() < 0.20
        assert 0.18 < m.fraction_diurnal() < 0.38
        assert m.fraction_diurnal() >= m.fraction_strict()

    def test_detection_agrees_with_design(self, world):
        schedule = RoundSchedule.for_days(14)
        m = measure_world(world, schedule)
        truth = world.is_diurnal
        assert m.strict_mask[truth].mean() > 0.9
        assert m.strict_mask[~truth].mean() < 0.05

    def test_phases_in_range(self, world):
        schedule = RoundSchedule.for_days(14)
        m = measure_world(world, schedule)
        assert (np.abs(m.phases) <= np.pi + 1e-9).all()

    def test_reproducible(self, world):
        schedule = RoundSchedule.for_days(7)
        a = measure_world(world, schedule, seed=5)
        b = measure_world(world, schedule, seed=5)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("chunk_size", [0, -100])
    def test_rejects_chunk_size_below_one(self, chunk_size):
        world = generate_world(WorldConfig(n_blocks=50, seed=1))
        with pytest.raises(ValueError, match="chunk_size"):
            measure_world(world, RoundSchedule.for_days(2), chunk_size=chunk_size)

    def test_one_chunk_keeps_about_one_full_size_array(self, monkeypatch):
        # Synthesis, restart bias and count draws share one (chunk,
        # rounds) float64 buffer; a second full-size array (a biased
        # copy, a full-size draw) would put the peak near 2.8x.
        monkeypatch.setattr(rowpool, "_workers", 2)
        a12w = SCENARIO_SCHEDULES["A12W"]
        schedule = RoundSchedule.for_days(
            14, start_s=a12w["start_s"], restart_interval_s=a12w["restart_interval_s"]
        )
        world = generate_world(WorldConfig(n_blocks=1024, seed=4))
        measure_world(generate_world(WorldConfig(n_blocks=8, seed=1)), schedule)
        full_size = world.n_blocks * len(schedule.times()) * 8
        tracemalloc.start()
        try:
            measure_world(world, schedule, chunk_size=world.n_blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * full_size

    def test_chunking_invariant(self, world):
        """Chunk size must not change results (same per-chunk seeds only
        when chunk boundaries match, so compare whole-run determinism at
        two sizes against block-level statistics)."""
        schedule = RoundSchedule.for_days(7)
        big = measure_world(world, schedule, chunk_size=1500, seed=9)
        small = measure_world(world, schedule, chunk_size=500, seed=9)
        # Different chunking reshuffles randomness; statistics must agree.
        assert big.fraction_strict() == pytest.approx(
            small.fraction_strict(), abs=0.02
        )
