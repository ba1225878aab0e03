"""EWMA availability estimators (section 2.1 of the paper).

Adaptive probing yields per-round counts ``(p, t)`` — positives and total
probes — that are biased toward positive outcomes because probing stops on
the first response.  The paper derives three estimates of block
availability from this stream:

* **short-term** ``Â_s = p̂_s / t̂_s`` with gain ``α_s = 0.1``, where ``p̂_s``
  and ``t̂_s`` are *separate* EWMAs of the counts.  Tracking numerator and
  denominator separately (rather than smoothing the ratio) is what keeps
  the estimator unbiased, for the same reason one summarizes normalized
  benchmark results with a geometric mean;
* **long-term** ``Â_l`` with gain ``α_l = 0.01``;
* **operational** ``Â_o = max(Â_l − d̂_l/2, 0.1)`` where ``d̂_l`` is an EWMA
  of the absolute deviation ``|Â_l − p/t|``.  Â_o deliberately
  *under*-estimates, because outage detection turns negative probes into
  "down" evidence with strength proportional to the assumed availability:
  an over-estimate manufactures false outages.  The 0.1 floor enforces
  Trinocular's do-no-harm probing cap.

:class:`DirectEwmaEstimator` reproduces the legacy variant used in dataset
A_12w that smooths the ratio directly and consistently over-estimates; it is
kept for the ablation benchmark.

:func:`estimate_series` is the vectorized batch form used for whole-Internet
scale runs; it is bit-for-bit equivalent to streaming
:class:`AvailabilityEstimator` over each row (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.rowpool import map_rows, worker_count

__all__ = [
    "AvailabilityEstimator",
    "AvailabilitySeries",
    "DirectEwmaEstimator",
    "EstimatorConfig",
    "RestartPolicy",
    "estimate_series",
]


@dataclass(frozen=True)
class RestartPolicy:
    """What estimator state survives a prober restart.

    The production prober checkpoints its state, so by default nothing is
    lost (the paper's ~4.3 cycles/day Figure 10 artifact comes from the
    *prober's* walk-order reset, not the estimator).  The reset flags exist
    for the ablation that shows what a stateless restart would do.
    """

    reset_short: bool = False
    reset_long: bool = False
    reset_deviation: bool = False


@dataclass(frozen=True)
class EstimatorConfig:
    """Gains and initial state of the availability estimators.

    Attributes:
        alpha_short: gain of the short-term EWMA (paper: 0.1).
        alpha_long: gain of the long-term EWMA and of the deviation EWMA
            (paper: 0.01).
        operational_floor: lower clamp on Â_o (paper: 0.1).
        deviation_margin: fraction of d̂_l subtracted from Â_l (paper: 1/2).
        initial_availability: the (possibly stale) historical estimate used
            to seed the EWMAs; section 2.1.1 notes it "may be off
            significantly".
        initial_weight: pseudo-count seeding t̂ so early rounds do not whip
            the ratio around.
        initial_deviation: seed for d̂_l.
        restart: what state a prober restart clears.
    """

    alpha_short: float = 0.1
    alpha_long: float = 0.01
    operational_floor: float = 0.1
    deviation_margin: float = 0.5
    initial_availability: float = 0.5
    initial_weight: float = 2.0
    initial_deviation: float = 0.1
    restart: RestartPolicy = field(default_factory=RestartPolicy)

    def __post_init__(self) -> None:
        for name in ("alpha_short", "alpha_long"):
            alpha = getattr(self, name)
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {alpha}")
        if not 0.0 <= self.initial_availability <= 1.0:
            raise ValueError("initial_availability must be in [0, 1]")
        if not 0.0 < self.initial_weight < math.inf:
            raise ValueError("initial_weight must be finite and positive")
        if not 0.0 <= self.initial_deviation < math.inf:
            raise ValueError("initial_deviation must be finite and >= 0")
        if not 0.0 <= self.operational_floor <= 1.0:
            raise ValueError("operational_floor must be in [0, 1]")
        if not 0.0 <= self.deviation_margin < math.inf:
            raise ValueError("deviation_margin must be finite and >= 0")


class AvailabilityEstimator:
    """Streaming estimator for one block; implements the prober's
    :class:`~repro.probing.prober.AvailabilityFeedback` protocol."""

    def __init__(self, config: EstimatorConfig | None = None) -> None:
        self.config = config or EstimatorConfig()
        self._init_state()

    def _init_state(self) -> None:
        cfg = self.config
        self.t_short = cfg.initial_weight
        self.p_short = cfg.initial_availability * cfg.initial_weight
        self.t_long = cfg.initial_weight
        self.p_long = cfg.initial_availability * cfg.initial_weight
        self.deviation = cfg.initial_deviation
        self.n_observed = 0

    @property
    def a_short(self) -> float:
        """Short-term availability Â_s."""
        return self.p_short / self.t_short

    @property
    def a_long(self) -> float:
        """Long-term availability Â_l."""
        return self.p_long / self.t_long

    @property
    def a_operational(self) -> float:
        """Conservative operational availability Â_o."""
        raw = self.a_long - self.config.deviation_margin * self.deviation
        return max(raw, self.config.operational_floor)

    def current(self) -> float:
        return self.a_operational

    def observe(self, positives: int, total: int) -> None:
        """Fold in one round's raw counts; rounds with no probes are no-ops."""
        if total <= 0:
            return
        if positives < 0 or positives > total:
            raise ValueError(f"bad counts p={positives}, t={total}")
        cfg = self.config
        a_s, a_l = cfg.alpha_short, cfg.alpha_long
        self.p_short = a_s * positives + (1.0 - a_s) * self.p_short
        self.t_short = a_s * total + (1.0 - a_s) * self.t_short
        self.p_long = a_l * positives + (1.0 - a_l) * self.p_long
        self.t_long = a_l * total + (1.0 - a_l) * self.t_long
        sample = positives / total
        self.deviation = (
            a_l * abs(self.a_long - sample) + (1.0 - a_l) * self.deviation
        )
        self.n_observed += 1

    def restart(self) -> None:
        """Apply the configured restart policy (prober relaunch)."""
        cfg = self.config
        if cfg.restart.reset_short:
            self.t_short = cfg.initial_weight
            self.p_short = cfg.initial_availability * cfg.initial_weight
        if cfg.restart.reset_long:
            self.t_long = cfg.initial_weight
            self.p_long = cfg.initial_availability * cfg.initial_weight
        if cfg.restart.reset_deviation:
            self.deviation = cfg.initial_deviation


class DirectEwmaEstimator:
    """Legacy variant: EWMA applied directly to the per-round ratio p/t.

    Dataset A_12w was collected with this estimator.  Because rounds with
    one probe contribute a 0-or-1 ratio with the same weight as a 15-probe
    round, and stop-on-first-positive makes 1-probe rounds mostly positive,
    smoothing the ratio consistently *over*-estimates availability.  The
    periodicity of the series is unaffected, which is why the paper could
    still use the dataset for diurnal detection.
    """

    def __init__(self, config: EstimatorConfig | None = None) -> None:
        self.config = config or EstimatorConfig()
        self.a_short = self.config.initial_availability
        self.a_long = self.config.initial_availability
        self.deviation = self.config.initial_deviation
        self.n_observed = 0

    @property
    def a_operational(self) -> float:
        raw = self.a_long - self.config.deviation_margin * self.deviation
        return max(raw, self.config.operational_floor)

    def current(self) -> float:
        return self.a_operational

    def observe(self, positives: int, total: int) -> None:
        if total <= 0:
            return
        cfg = self.config
        sample = positives / total
        self.a_short = cfg.alpha_short * sample + (1 - cfg.alpha_short) * self.a_short
        self.a_long = cfg.alpha_long * sample + (1 - cfg.alpha_long) * self.a_long
        self.deviation = (
            cfg.alpha_long * abs(self.a_long - sample)
            + (1 - cfg.alpha_long) * self.deviation
        )
        self.n_observed += 1

    def restart(self) -> None:
        if self.config.restart.reset_short:
            self.a_short = self.config.initial_availability


@dataclass
class AvailabilitySeries:
    """Batch estimator output: per-round estimates for one or many blocks.

    Every array has the same shape as the input counts: ``(n_rounds,)`` or
    ``(n_blocks, n_rounds)``.  A ``short_only`` run of
    :func:`estimate_series` fills ``a_short`` alone; the other fields are
    ``None``.
    """

    a_short: np.ndarray
    a_long: np.ndarray | None
    a_operational: np.ndarray | None
    deviation: np.ndarray | None


# Rounds per chunk of the batch kernel.  A per-round step touches a few
# (2, 2, n_blocks) vectors, which stay in L2 for ~2,000-block world chunks;
# the chunk need only be long enough to amortize its bulk calls (on 2,000
# blocks, 32-64 rounds ran fastest; 256 was ~30% slower).
_CHUNK_ROUNDS = 64

# Fewest blocks worth a slice of their own on the row pool: below this
# the per-round Python dispatch, which holds the GIL, outweighs the
# vector work a second thread could overlap (on 35-day series, two
# 256-block slices ran no faster than one 512-block call).
_MIN_SLICE_ROWS = 256


def estimate_series(
    positives: np.ndarray,
    totals: np.ndarray,
    config: EstimatorConfig | None = None,
    restart_rounds: np.ndarray | None = None,
    initial_availability: np.ndarray | float | None = None,
    short_only: bool = False,
) -> AvailabilitySeries:
    """Vectorized :class:`AvailabilityEstimator` over count arrays.

    ``positives`` and ``totals`` are count arrays shaped ``(n_rounds,)``
    or ``(n_blocks, n_rounds)``, of any integer or float dtype.  Rounds
    with ``totals <= 0`` leave that block's state unchanged (matching the
    streaming no-op); on other rounds ``0 <= positives <= totals`` must
    hold, else ValueError (as :meth:`AvailabilityEstimator.observe`).
    ``restart_rounds`` lists integral round indices at which the restart
    policy is applied to every block before that round's observation.
    ``initial_availability`` optionally overrides the config seed estimate,
    per block — the deployment initializes each block from years of
    history, so a scalar cold start misrepresents warm blocks.
    ``short_only`` computes Â_s alone, the one series the FFT test reads:
    the kernel runs only the ``(p̂_s, t̂_s)`` row of its state and skips
    Â_l, the deviation pass and Â_o, whose fields are then ``None``.

    The kernel walks the rounds in chunks of ``_CHUNK_ROUNDS``.  Each
    chunk of counts is read in the caller's dtype and transposed into a
    round-major float64 scratch buffer, so no full-size copy of the
    inputs is made and every per-round step works on contiguous vectors.
    The four count EWMAs ``[[p̂_s, t̂_s], [p̂_l, t̂_l]]`` are one stacked
    state updated as ``s = g·x + k·s`` with per-round gains ``g = α·active``
    and ``k = 1 − g``, then the deviation EWMA runs the same way on
    ``Â_l`` computed for the whole chunk.  This is bit-for-bit the
    masked update of streaming :class:`AvailabilityEstimator` (tested):
    on an active round ``g`` is exactly α and ``k`` is ``1.0 − α``; on an
    idle round the drive term is +0 and ``k`` is 1, so the state is
    unchanged; and the sum's operand order does not matter because IEEE
    addition is commutative.

    Every block's recurrence is independent of the others, so the blocks
    are split into one slice per row-pool worker (:mod:`repro.core.rowpool`,
    at least ``_MIN_SLICE_ROWS`` blocks each) that writes its own rows of
    the outputs.  A bad count is reported as the serial walk would find
    it: the earliest round, then the lowest block.
    """
    config = config or EstimatorConfig()
    p_in = np.asarray(positives)
    t_in = np.asarray(totals)
    p2 = np.atleast_2d(p_in)
    t2 = np.atleast_2d(t_in)
    if p2.shape != t2.shape:
        raise ValueError(f"shape mismatch: {p2.shape} vs {t2.shape}")
    n_blocks, n_rounds = p2.shape

    cfg = config
    w0 = cfg.initial_weight
    if initial_availability is None:
        a0 = np.full(n_blocks, cfg.initial_availability)
    else:
        a0 = np.broadcast_to(
            np.asarray(initial_availability, dtype=np.float64), (n_blocks,)
        )
        if (~((a0 >= 0) & (a0 <= 1))).any():
            raise ValueError("initial_availability must be in [0, 1]")
    # Stacked state [[p̂_s, t̂_s], [p̂_l, t̂_l]], its gains and restart
    # mask; a short-only run keeps the first row.
    rows_run = 1 if short_only else 2
    alphas = [cfg.alpha_short, cfg.alpha_long][:rows_run]
    seed_state = np.empty((rows_run, 2, n_blocks))
    seed_state[:, 0] = a0 * w0
    seed_state[:, 1] = w0
    reset_rows = np.array(
        [cfg.restart.reset_short, cfg.restart.reset_long][:rows_run]
    )[:, None, None]
    reset_dev = cfg.restart.reset_deviation and not short_only
    restarts = set()
    if restart_rounds is not None:
        asked = np.asarray(restart_rounds)
        rounds = asked.astype(np.int64)
        fractional = asked[rounds != asked]
        if fractional.size:
            raise ValueError(
                f"restart_rounds must be integral, got {fractional[0]}"
            )
        if reset_rows.any() or reset_dev:
            restarts = set(rounds.tolist())

    a_short = np.empty((n_blocks, n_rounds))
    a_long = a_oper = deviation = None
    if not short_only:
        a_long = np.empty((n_blocks, n_rounds))
        a_oper = np.empty((n_blocks, n_rounds))
        deviation = np.empty((n_blocks, n_rounds))
    chunk = max(min(_CHUNK_ROUNDS, n_rounds), 1)
    bad_counts = []  # (round, block) of each slice's first bad count

    def estimate_rows(rows: slice) -> None:
        p_rows, t_rows = p2[rows], t2[rows]
        seed_rows = seed_state[:, :, rows]
        n = len(p_rows)
        obs = np.empty((chunk, 2, n))  # round-major (p, t)
        active = np.empty((chunk, n), dtype=bool)
        idle = np.empty((chunk, n), dtype=bool)
        gain = np.empty((chunk, rows_run, n))  # g for (short, long)
        keep = np.empty((chunk, rows_run, n))  # k = 1 - g
        drive = np.empty((chunk, rows_run, 2, n))  # g·(p, t)
        state = np.empty((chunk + 1, rows_run, 2, n))  # row 0 carries in
        state[0] = seed_rows
        if not short_only:
            dev = np.empty((chunk + 1, n))
            ratio_l = np.empty((chunk, n))
            work = np.empty((chunk, n))
            dev[0] = cfg.initial_deviation

        for r0 in range(0, n_rounds, chunk):
            c = min(chunk, n_rounds - r0)
            cols = slice(r0, r0 + c)
            x = obs[:c]
            np.copyto(x[:, 0], p_rows[:, cols].T, casting="unsafe")
            np.copyto(x[:, 1], t_rows[:, cols].T, casting="unsafe")
            on = np.greater(x[:, 1], 0, out=active[:c])
            off = np.logical_not(on, out=idle[:c])
            bad = on & ((x[:, 0] < 0) | (x[:, 0] > x[:, 1]))
            if bad.any():
                r, b = np.argwhere(bad)[0]
                bad_counts.append((r0 + r, rows.start + b))
                return
            # Idle rounds observe nothing: zero their counts (float counts
            # may hold NaN or inf there, which a masked copy clears).
            np.copyto(x, 0.0, where=off[:, None, :])
            g, gx = gain[:c], drive[:c]
            for row, alpha in enumerate(alphas):
                np.multiply(on, alpha, out=g[:, row])
                np.multiply(x, alpha, out=gx[:, row])
            k = np.subtract(1.0, g, out=keep[:c])

            k4 = k[:, :, None, :]
            for j in range(c):
                prev = state[j]
                if r0 + j in restarts:
                    prev = np.where(reset_rows, seed_rows, prev)
                np.multiply(k4[j], prev, out=state[j + 1])
                np.add(state[j + 1], gx[j], out=state[j + 1])

            s = state[1 : c + 1]
            np.divide(s[:, 0, 0].T, s[:, 0, 1].T, out=a_short[rows, cols])
            state[0] = state[c]
            if short_only:
                continue
            rl = np.divide(s[:, 1, 0], s[:, 1, 1], out=ratio_l[:c])
            a_long[rows, cols] = rl.T

            # Deviation drive g_l·|Â_l − p/t|: α_l·|Â_l − p/t| on active
            # rounds, +0 on idle ones (whose t is lifted to 1 to divide).
            d = np.add(x[:, 1], off, out=work[:c])
            np.divide(x[:, 0], d, out=d)
            np.subtract(rl, d, out=d)
            np.abs(d, out=d)
            np.multiply(g[:, 1], d, out=d)
            np.copyto(d, 0.0, where=off)
            k_l = k[:, 1]
            for j in range(c):
                prev = dev[j]
                if reset_dev and r0 + j in restarts:
                    prev = np.full(n, cfg.initial_deviation)
                np.multiply(k_l[j], prev, out=dev[j + 1])
                np.add(dev[j + 1], d[j], out=dev[j + 1])
            v = dev[1 : c + 1]
            deviation[rows, cols] = v.T

            o = np.multiply(cfg.deviation_margin, v, out=d)
            np.subtract(rl, o, out=o)
            np.maximum(o, cfg.operational_floor, out=o)
            a_oper[rows, cols] = o.T
            dev[0] = dev[c]

    # The per-round loop costs the same per call whatever the row count,
    # so the rows go out as one large slice per worker.
    per_worker = -(-n_blocks // worker_count())
    map_rows(estimate_rows, n_blocks, max(per_worker, _MIN_SLICE_ROWS))
    if bad_counts:
        r, b = min(bad_counts)
        raise ValueError(
            f"bad counts p={p2[b, r]}, t={t2[b, r]} (block {b}, round {r})"
        )

    outputs = (a_short, a_long, a_oper, deviation)
    if p_in.ndim == 1:
        outputs = [None if out is None else out[0] for out in outputs]
    return AvailabilitySeries(*outputs)
