"""Tests for the EWMA availability estimators (paper section 2.1)."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import (
    AvailabilityEstimator,
    DirectEwmaEstimator,
    EstimatorConfig,
    RestartPolicy,
    _CHUNK_ROUNDS,
    estimate_series,
)
from tests.test_rowpool import forced_split, single_slice


class TestConfig:
    def test_paper_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.alpha_short == 0.1
        assert cfg.alpha_long == 0.01
        assert cfg.operational_floor == 0.1
        assert cfg.deviation_margin == 0.5

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            EstimatorConfig(alpha_short=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(alpha_long=1.5)

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            EstimatorConfig(initial_availability=1.2)
        with pytest.raises(ValueError):
            EstimatorConfig(initial_weight=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("initial_weight", np.nan),
            ("initial_weight", np.inf),
            ("initial_deviation", np.nan),
            ("initial_deviation", np.inf),
            ("initial_deviation", -1.0),
            ("operational_floor", np.nan),
            ("operational_floor", -0.1),
            ("operational_floor", 1.5),
            ("deviation_margin", np.nan),
            ("deviation_margin", np.inf),
            ("deviation_margin", -0.5),
        ],
    )
    def test_rejects_non_finite_or_out_of_range(self, name, value):
        # NaN seeds made every estimate NaN, and a NaN floor split streaming
        # (Python max drops it) from batch (np.maximum propagates it).
        with pytest.raises(ValueError, match=name):
            EstimatorConfig(**{name: value})

    def test_accepts_range_edges(self):
        for floor, margin in [(0.0, 0.0), (1.0, 2.0)]:
            EstimatorConfig(
                operational_floor=floor, deviation_margin=margin,
                initial_deviation=0.0,
            )


class TestStreaming:
    def test_initial_estimate(self):
        est = AvailabilityEstimator(EstimatorConfig(initial_availability=0.4))
        assert est.a_short == pytest.approx(0.4)
        assert est.a_long == pytest.approx(0.4)

    def test_converges_to_true_ratio(self):
        est = AvailabilityEstimator()
        rng = np.random.default_rng(0)
        for _ in range(3000):
            t = 4
            p = rng.binomial(t, 0.3)
            est.observe(p, t)
        assert est.a_short == pytest.approx(0.3, abs=0.1)
        assert est.a_long == pytest.approx(0.3, abs=0.03)

    def test_short_term_adapts_faster(self):
        est = AvailabilityEstimator(EstimatorConfig(initial_availability=0.9))
        for _ in range(30):
            est.observe(0, 3)
        assert est.a_short < est.a_long

    def test_operational_below_long_term(self):
        est = AvailabilityEstimator()
        rng = np.random.default_rng(1)
        for _ in range(500):
            est.observe(int(rng.random() < 0.6), 1)
        assert est.a_operational < est.a_long

    def test_operational_floor(self):
        est = AvailabilityEstimator()
        for _ in range(2000):
            est.observe(0, 15)
        assert est.a_operational == 0.1

    def test_zero_total_is_noop(self):
        est = AvailabilityEstimator()
        state = (est.p_short, est.t_short, est.p_long, est.t_long, est.deviation)
        est.observe(0, 0)
        assert state == (est.p_short, est.t_short, est.p_long, est.t_long, est.deviation)
        assert est.n_observed == 0

    def test_rejects_bad_counts(self):
        est = AvailabilityEstimator()
        with pytest.raises(ValueError):
            est.observe(5, 3)
        with pytest.raises(ValueError):
            est.observe(-1, 3)

    def test_single_round_update_matches_paper_equations(self):
        cfg = EstimatorConfig(initial_availability=0.5, initial_weight=2.0)
        est = AvailabilityEstimator(cfg)
        est.observe(2, 5)
        # p̂_s = 0.1·2 + 0.9·(0.5·2) = 1.1 ; t̂_s = 0.1·5 + 0.9·2 = 2.3
        assert est.p_short == pytest.approx(1.1)
        assert est.t_short == pytest.approx(2.3)
        assert est.a_short == pytest.approx(1.1 / 2.3)

    def test_restart_is_noop_by_default(self):
        """Checkpointed state survives a prober restart (default policy)."""
        est = AvailabilityEstimator()
        for _ in range(200):
            est.observe(1, 1)
        before = (est.a_short, est.a_long, est.deviation)
        est.restart()
        assert (est.a_short, est.a_long, est.deviation) == before

    def test_restart_reset_short_policy(self):
        cfg = EstimatorConfig(restart=RestartPolicy(reset_short=True))
        est = AvailabilityEstimator(cfg)
        for _ in range(200):
            est.observe(1, 1)
        long_before = est.a_long
        est.restart()
        assert est.a_short == pytest.approx(cfg.initial_availability)
        assert est.a_long == pytest.approx(long_before)

    def test_restart_policy_all(self):
        cfg = EstimatorConfig(
            restart=RestartPolicy(reset_short=True, reset_long=True, reset_deviation=True)
        )
        est = AvailabilityEstimator(cfg)
        for _ in range(200):
            est.observe(1, 1)
        est.restart()
        assert est.a_long == pytest.approx(cfg.initial_availability)
        assert est.deviation == pytest.approx(cfg.initial_deviation)


class TestDirectEwmaBias:
    def test_direct_variant_overestimates(self):
        """The A_12w legacy estimator over-estimates A (paper section 2.1.2).

        Feed both estimators counts from stop-on-first-positive probing of a
        block with true availability 0.3: most rounds end with (1, small t),
        and ratio-smoothing weights those 1.0 samples far too heavily.
        """
        true_a = 0.3
        rng = np.random.default_rng(2)
        ratio_est = DirectEwmaEstimator()
        count_est = AvailabilityEstimator()
        ratio_values = []
        count_values = []
        for _ in range(4000):
            t = 0
            p = 0
            while t < 15:
                t += 1
                if rng.random() < true_a:
                    p = 1
                    break
            ratio_est.observe(p, t)
            count_est.observe(p, t)
            ratio_values.append(ratio_est.a_short)
            count_values.append(count_est.a_short)
        count_mean = np.mean(count_values[500:])
        ratio_mean = np.mean(ratio_values[500:])
        assert count_mean == pytest.approx(true_a, abs=0.05)
        assert ratio_mean > count_mean + 0.2

    def test_direct_restart(self):
        cfg = EstimatorConfig(restart=RestartPolicy(reset_short=True))
        est = DirectEwmaEstimator(cfg)
        for _ in range(100):
            est.observe(0, 1)
        est.restart()
        assert est.a_short == est.config.initial_availability


SERIES_FIELDS = ("a_short", "a_long", "a_operational", "deviation")


def assert_matches_streaming(batch, positives, totals, cfg=None, restarts=()):
    """Every batch series equals streaming ``AvailabilityEstimator`` bit for bit."""
    for b in range(positives.shape[0]):
        est = AvailabilityEstimator(cfg)
        for r in range(positives.shape[1]):
            if r in restarts:
                est.restart()
            est.observe(int(positives[b, r]), int(totals[b, r]))
            for name in SERIES_FIELDS:
                assert getattr(batch, name)[b, r] == getattr(est, name), (name, b, r)


class TestVectorized:
    def test_matches_streaming_exactly(self):
        rng = np.random.default_rng(3)
        totals = rng.integers(0, 16, size=(4, 300))
        positives = np.minimum(rng.integers(0, 2, size=(4, 300)), totals)
        batch = estimate_series(positives, totals)
        assert_matches_streaming(batch, positives, totals)

    def test_matches_streaming_with_restarts(self):
        cfg = EstimatorConfig(
            restart=RestartPolicy(reset_short=True, reset_deviation=True)
        )
        rng = np.random.default_rng(4)
        totals = rng.integers(1, 16, size=(2, 100))
        positives = (rng.random((2, 100)) < 0.5).astype(int)
        restarts = np.array([30, 60])
        batch = estimate_series(positives, totals, cfg, restart_rounds=restarts)
        assert_matches_streaming(batch, positives, totals, cfg, restarts.tolist())

    @pytest.mark.parametrize("flag", ["reset_short", "reset_long", "reset_deviation"])
    def test_matches_streaming_with_each_reset(self, flag):
        cfg = EstimatorConfig(restart=RestartPolicy(**{flag: True}))
        rng = np.random.default_rng(5)
        totals = rng.integers(0, 16, size=(3, 400))
        positives = np.minimum(rng.integers(0, 2, size=(3, 400)), totals)
        restarts = [0, 63, 64, 200, 399]
        batch = estimate_series(positives, totals, cfg, restart_rounds=restarts)
        assert_matches_streaming(batch, positives, totals, cfg, restarts)

    def test_1d_input_gives_1d_output(self):
        series = estimate_series(np.array([1, 0, 1]), np.array([1, 1, 2]))
        assert series.a_short.shape == (3,)
        short = estimate_series([1, 0, 1], [1, 1, 2], short_only=True)
        assert short.a_short.tobytes() == series.a_short.tobytes()
        assert short.a_long is short.a_operational is short.deviation is None

    @pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=3)))
    def test_short_only_equals_full_kernel_under_every_policy(self, flags):
        cfg = EstimatorConfig(restart=RestartPolicy(*flags))
        rng = np.random.default_rng(6)
        totals = rng.integers(0, 16, size=(3, 400))
        positives = np.minimum(rng.integers(0, 2, size=(3, 400)), totals)
        a0 = rng.uniform(0.0, 1.0, 3)
        for restarts in (None, [0, 63, 64, 200, 399]):
            full = estimate_series(
                positives, totals, cfg, restarts, initial_availability=a0
            )
            short = estimate_series(
                positives, totals, cfg, restarts, initial_availability=a0,
                short_only=True,
            )
            assert short.a_short.tobytes() == full.a_short.tobytes()
            assert short.a_long is short.a_operational is short.deviation is None

    def test_short_only_peak_memory_is_its_one_output(self):
        # Guards the saving: the unread series would push the peak to ~4x.
        rng = np.random.default_rng(7)
        totals = rng.integers(0, 16, size=(256, 2000)).astype(np.int16)
        positives = np.minimum(rng.integers(0, 2, size=totals.shape), totals)
        tracemalloc.start()
        try:
            series = estimate_series(positives, totals, short_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * series.a_short.nbytes

    @pytest.mark.parametrize("reset_short", [False, True])
    def test_rejects_fractional_restart_rounds(self, reset_short):
        cfg = EstimatorConfig(restart=RestartPolicy(reset_short=reset_short))
        with pytest.raises(ValueError, match="restart_rounds must be integral"):
            estimate_series([1, 1, 1, 1], [1, 1, 1, 1], cfg, restart_rounds=[2.9])
        whole = estimate_series([1, 0, 1, 1], [1, 1, 1, 1], cfg, restart_rounds=[2.0])
        ints = estimate_series([1, 0, 1, 1], [1, 1, 1, 1], cfg, restart_rounds=[2])
        assert whole.a_short.tobytes() == ints.a_short.tobytes()

    @pytest.mark.parametrize("reset_short", [False, True])
    def test_rejects_negative_restart_rounds(self, reset_short):
        # A negative round is no round of the series; it must not pass silently.
        cfg = EstimatorConfig(restart=RestartPolicy(reset_short=reset_short))
        with pytest.raises(ValueError, match="restart_rounds must be non-negative"):
            estimate_series([1, 1, 1, 1], [1, 1, 1, 1], cfg, restart_rounds=[2, -2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_series(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_rejects_nan_initial_availability(self):
        with pytest.raises(ValueError, match="initial_availability"):
            estimate_series([1, 0], [1, 1], initial_availability=[np.nan])

    @pytest.mark.parametrize("p, t", [([5, -1], [2, 3]), ([1, 4], [1, 3])])
    def test_rejects_counts_streaming_rejects(self, p, t):
        est = AvailabilityEstimator()
        with pytest.raises(ValueError, match="bad counts"):
            for p_r, t_r in zip(p, t):
                est.observe(p_r, t_r)
        with pytest.raises(ValueError, match="bad counts"):
            estimate_series(p, t)

    @pytest.mark.parametrize(
        "bad, first",
        [
            # (block, round) of each bad count -> the one reported.
            ([(5, 10), (1, 150), (3, 10)], (3, 10)),
            ([(0, 100), (4, 70)], (4, 70)),
            ([(4, 63), (2, 64)], (4, 63)),
            ([(5, 199)], (5, 199)),
        ],
    )
    def test_bad_count_reported_in_serial_order_under_split(self, bad, first):
        totals = np.full((6, 200), 3)
        positives = np.ones((6, 200), dtype=np.int64)
        for b, r in bad:
            positives[b, r] = 4 + b
        block, round_ = first
        message = (
            f"bad counts p={4 + block}, t=3 (block {block}, round {round_})"
        )
        for context, short_only in itertools.product(
            (forced_split, single_slice), (False, True)
        ):
            with context(), pytest.raises(ValueError) as info:
                estimate_series(positives, totals, short_only=short_only)
            assert str(info.value) == message

    def test_idle_rounds_accept_any_positives(self):
        # Rounds with t <= 0 are no-ops, as in streaming, whatever p says.
        series = estimate_series([3, -1, 1], [0, -2, 1])
        est = AvailabilityEstimator()
        for p, t in [(3, 0), (-1, -2), (1, 1)]:
            est.observe(p, t)
        assert series.a_short[-1] == est.a_short
        assert series.deviation[-1] == est.deviation

    def test_empty_inputs_keep_their_shapes(self):
        assert estimate_series([], []).a_short.shape == (0,)
        assert estimate_series(np.zeros((3, 0)), np.zeros((3, 0))).a_long.shape == (3, 0)
        assert estimate_series(np.zeros((0, 5)), np.zeros((0, 5))).deviation.shape == (0, 5)
        for shape in [(0,), (3, 0), (0, 5)]:
            short = estimate_series(np.zeros(shape), np.zeros(shape), short_only=True)
            assert short.a_short.shape == shape
            assert short.a_long is None


def reference_estimate_series(positives, totals, config, restart_rounds, a0):
    """The per-round masked loop the chunked kernel replaced (oracle)."""
    cfg = config
    p_in = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    t_in = np.atleast_2d(np.asarray(totals, dtype=np.float64))
    n_blocks, n_rounds = p_in.shape
    restarts = set(np.asarray(restart_rounds, dtype=np.int64).tolist())
    w0 = cfg.initial_weight
    a0 = np.broadcast_to(np.asarray(a0, dtype=np.float64), (n_blocks,)).copy()
    p_s = a0 * w0
    t_s = np.full(n_blocks, w0)
    p_l = p_s.copy()
    t_l = t_s.copy()
    dev = np.full(n_blocks, cfg.initial_deviation)
    out = {name: np.empty((n_blocks, n_rounds)) for name in SERIES_FIELDS}
    a_s, a_l = cfg.alpha_short, cfg.alpha_long
    for r in range(n_rounds):
        if r in restarts:
            if cfg.restart.reset_short:
                p_s[:] = a0 * w0
                t_s[:] = w0
            if cfg.restart.reset_long:
                p_l[:] = a0 * w0
                t_l[:] = w0
            if cfg.restart.reset_deviation:
                dev[:] = cfg.initial_deviation
        p = p_in[:, r]
        t = t_in[:, r]
        active = t > 0
        p_s[active] = a_s * p[active] + (1 - a_s) * p_s[active]
        t_s[active] = a_s * t[active] + (1 - a_s) * t_s[active]
        p_l[active] = a_l * p[active] + (1 - a_l) * p_l[active]
        t_l[active] = a_l * t[active] + (1 - a_l) * t_l[active]
        ratio_l = p_l / t_l
        sample = np.zeros(n_blocks)
        np.divide(p, t, out=sample, where=active)
        dev[active] = (
            a_l * np.abs(ratio_l[active] - sample[active]) + (1 - a_l) * dev[active]
        )
        out["a_short"][:, r] = p_s / t_s
        out["a_long"][:, r] = ratio_l
        out["deviation"][:, r] = dev
        out["a_operational"][:, r] = np.maximum(
            ratio_l - cfg.deviation_margin * dev, cfg.operational_floor
        )
    return out


CHUNK = _CHUNK_ROUNDS


@st.composite
def kernel_cases(draw):
    n_blocks = draw(st.integers(1, 4))
    n_rounds = draw(
        st.one_of(
            st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]),
            st.integers(0, 3 * CHUNK + 5),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    totals = rng.integers(0, 16, (n_blocks, n_rounds))
    totals[:, rng.random(n_rounds) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = 0
    positives = rng.integers(0, totals + 1)
    dtype = draw(st.sampled_from([np.int16, np.int64, np.uint8, np.float32, np.float64]))
    positives = positives.astype(dtype)
    totals = totals.astype(dtype)
    if np.dtype(dtype).kind == "f" and draw(st.booleans()):
        # Float counts may mark idle rounds with non-finite values, and a
        # NaN count on an active round poisons the state, as in streaming.
        idle = totals <= 0
        positives[idle] = np.nan
        totals[idle & (rng.random(totals.shape) < 0.5)] = -np.inf
        positives[~idle & (rng.random(totals.shape) < 0.02)] = np.nan
    edges = [0, max(n_rounds - 1, 0), CHUNK - 1, CHUNK, 2 * CHUNK, n_rounds]
    restarts = draw(
        st.lists(
            st.one_of(st.sampled_from(edges), st.integers(0, max(n_rounds - 1, 0))),
            max_size=6,
        )
    )
    policy = RestartPolicy(draw(st.booleans()), draw(st.booleans()), draw(st.booleans()))
    cfg = EstimatorConfig(restart=policy)
    a0 = cfg.initial_availability
    if draw(st.booleans()):
        a0 = rng.uniform(0.0, 1.0, n_blocks)
    one_d = n_blocks == 1 and draw(st.booleans())
    return positives, totals, cfg, restarts, a0, one_d


@settings(max_examples=80, deadline=None)
@given(case=kernel_cases())
def test_chunked_kernel_matches_reference_loop_bitwise(case):
    check_kernel_against_reference(case)


@settings(max_examples=80, deadline=None)
@given(case=kernel_cases())
def test_chunked_kernel_matches_reference_loop_bitwise_under_forced_split(case):
    with forced_split():
        check_kernel_against_reference(case)


@settings(max_examples=80, deadline=None)
@given(case=kernel_cases())
def test_short_only_kernel_matches_reference_loop_bitwise(case):
    check_kernel_against_reference(case, short_only=True)


@settings(max_examples=80, deadline=None)
@given(case=kernel_cases())
def test_short_only_kernel_matches_reference_loop_bitwise_under_forced_split(case):
    with forced_split():
        check_kernel_against_reference(case, short_only=True)


def check_kernel_against_reference(case, short_only=False):
    positives, totals, cfg, restarts, a0, one_d = case
    expected = reference_estimate_series(positives, totals, cfg, restarts, a0)
    if one_d:
        positives, totals = positives[0], totals[0]
    got = estimate_series(
        positives, totals, cfg, restart_rounds=restarts, initial_availability=a0,
        short_only=short_only,
    )
    for name in SERIES_FIELDS:
        want = expected[name][0] if one_d else expected[name]
        have = getattr(got, name)
        if short_only and name != "a_short":
            assert have is None, name
            continue
        assert have.shape == want.shape, name
        assert have.dtype == np.float64, name
        assert canonical_bits(have) == canonical_bits(want), name


def canonical_bits(array):
    """The array's bytes with every NaN in one canonical encoding."""
    return np.where(np.isnan(array), np.nan, array).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=200
    )
)
def test_estimates_always_in_unit_interval(data):
    est = AvailabilityEstimator()
    for t, p_raw in data:
        p = min(p_raw, t)
        est.observe(p, t)
        assert 0.0 <= est.a_short <= 1.0
        assert 0.0 <= est.a_long <= 1.0
        assert 0.1 <= est.a_operational <= 1.0


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(0, 2**31 - 1),
)
def test_long_term_tracks_any_availability(a, seed):
    est = AvailabilityEstimator()
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        est.observe(int(rng.binomial(5, a)), 5)
    assert est.a_long == pytest.approx(a, abs=0.08)
