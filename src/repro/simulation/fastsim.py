"""Scale path: vectorized measurement of a generated world.

Address-level simulation of millions of blocks is out of laptop scope, so
the global analyses use a statistically equivalent shortcut:

1. synthesize each block's per-round *true availability* directly from its
   behaviour parameters (trapezoidal daily window plus AR(1) noise);
2. draw the adaptive prober's per-round counts from that availability —
   stop-on-first-positive probing of a block with per-address availability
   ``A`` sends ``t = min(G, 15)`` probes where ``G`` is geometric(A), and
   returns ``p = 1`` iff a probe succeeded (the distribution the real
   prober exhibits; tested against it);
3. feed those counts through the **real** EWMA estimator
   (:func:`repro.core.estimator.estimate_series`) and the **real**
   spectral classifier (:func:`repro.core.classify.classify_many`).

The contribution code therefore runs unmodified at scale; only the
substrate beneath it is summarized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classify import ClassifierConfig, classify_many
from repro.core.estimator import EstimatorConfig, estimate_series
from repro.core.rowpool import map_rows
from repro.core.timeseries import trim_to_midnight
from repro.probing.rounds import RoundSchedule
from repro.simulation.internet import InternetWorld

__all__ = [
    "FastMeasurement",
    "adaptive_counts",
    "apply_restart_bias",
    "designed_mean_availability",
    "measure_world",
    "synthesize_availability",
]


# Rows per slice of the synthesis, restart-bias and count layers.  Each
# slice's temporaries stay a few MB on 35-day series, small enough for
# each worker thread to reuse the same memory from one world to the next.
_ROW_TILE = 128


def synthesize_availability(
    world: InternetWorld,
    indices: np.ndarray,
    times: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """True per-round availability for the selected blocks.

    The daily shape is a trapezoid between ``a_low`` and ``a_high``: the
    block wakes at ``onset_frac`` of the UTC day, ramps up over ~90
    minutes, stays high for ``uptime_frac`` of the day, and ramps back
    down.  AR(1) noise models address-level churn.

    Two ``(blocks, rounds)`` buffers carry every step in place, and the
    lease cosine is evaluated only for blocks with a nonzero
    ``lease_amp``.  The row math runs in slices of ``_ROW_TILE`` blocks
    on the row pool (:mod:`repro.core.rowpool`); the normal shocks are
    one full-size draw on the calling thread between the two passes.
    """
    from scipy.signal import lfilter

    indices = np.asarray(indices, dtype=np.intp)
    day_frac = (times / 86400.0) % 1.0
    onset = world.onset_frac[indices]
    # x = (day_frac - onset) % 1.0, the time since onset in days.  With
    # both terms in [0, 1] the difference lies in [-1, 1), where numpy's
    # remainder is exactly x + (x < 0) (a -0.0 becomes +0.0 either way),
    # at a fraction of the cost.
    unit_day = bool(((onset >= 0) & (onset <= 1)).all() and (day_frac < 1).all())
    up = world.uptime_frac[indices]
    lo = world.a_low[indices]
    span = world.a_high[indices] - lo
    lease_amp = world.lease_amp[indices]
    shape = (len(indices), len(times))
    a = np.empty(shape)
    scratch = np.empty(shape)

    def trapezoid(rows: slice) -> None:
        x, s = a[rows], scratch[rows]
        np.subtract(day_frac[None, :], onset[rows, None], out=x)
        if unit_day:
            np.add(x, x < 0, out=x)
        else:
            np.remainder(x, 1.0, out=x)
        tau = 0.0625  # 90-minute ramps
        np.subtract(x, up[rows, None], out=s)
        np.divide(s, tau, out=s)
        np.clip(s, 0.0, 1.0, out=s)
        np.divide(x, tau, out=x)
        np.clip(x, 0.0, 1.0, out=x)
        window = np.subtract(x, s, out=x)
        np.multiply(span[rows, None], window, out=x)
        np.add(lo[rows, None], x, out=x)

        # Competing lease-style periodicity (see internet._sample_lease_cpd).
        leased = np.flatnonzero(lease_amp[rows])
        if leased.size:
            sub = indices[rows][leased][:, None]
            lease = np.multiply(
                2 * np.pi * world.lease_cpd[sub], times[None, :],
                out=s[: leased.size],
            )
            np.divide(lease, 86400.0, out=lease)
            np.add(lease, world.lease_phase[sub], out=lease)
            np.cos(lease, out=lease)
            np.multiply(world.lease_amp[sub], lease, out=lease)
            x[leased] += lease

    # AR(1) noise, one chain per block.
    sigma = world.noise_sigma[indices]
    phi = 0.7

    def add_noise(rows: slice) -> None:
        x, shocks = a[rows], scratch[rows]
        np.multiply(shocks, sigma[rows, None], out=shocks)
        np.multiply(shocks, 0.55, out=shocks)
        np.add(x, lfilter([1.0], [1.0, -phi], shocks, axis=1), out=x)
        np.clip(x, 0.005, 0.995, out=x)

    map_rows(trapezoid, shape[0], _ROW_TILE)
    # rng.normal(0.0, 1.0, a.shape) is 0.0 + 1.0·z over this same stream
    # of standard normals z; draw them straight into the scratch buffer.
    rng.standard_normal(out=scratch)
    map_rows(add_noise, shape[0], _ROW_TILE)
    return a


def apply_restart_bias(
    availability: np.ndarray,
    restart_rounds: np.ndarray,
    rng: np.random.Generator,
    bias_sigma: float = 0.13,
    decay: tuple = (1.0, 0.7, 0.45, 0.25),
) -> np.ndarray:
    """Perturb availability after each prober restart (Figure 10 artifact).

    A restarted prober re-walks its address permutation from the top, so
    the first few rounds after a restart over/under-sample particular
    addresses.  Each block gets a fixed signed bias that decays over a few
    rounds — a pulse train at the restart frequency (~4.3 cycles/day for
    the 5.5-hour A_12w policy) that dominates the spectrum only of blocks
    whose genuine daily signal is nearly flat, the paper's ~3%.

    Returns a new array and leaves ``availability`` unmodified, except
    that with no restarts it returns ``availability`` itself.
    """
    if len(restart_rounds) == 0:
        return availability
    src = np.asarray(availability)
    out = np.empty(src.shape)
    bias = rng.normal(0.0, bias_sigma, size=(out.shape[0], 1))
    n_rounds = out.shape[1]
    pulses = []
    for offset, weight in enumerate(decay):
        rounds = restart_rounds + offset
        pulses.append((rounds[rounds < n_rounds], weight))

    def bias_rows(rows: slice) -> None:
        x = out[rows]
        np.copyto(x, src[rows], casting="unsafe")
        for rounds, weight in pulses:
            x[:, rounds] += bias[rows] * weight
        np.clip(x, 0.005, 0.995, out=x)

    map_rows(bias_rows, out.shape[0], _ROW_TILE)
    return out


def adaptive_counts(
    availability: np.ndarray,
    rng: np.random.Generator,
    max_probes: int = 15,
    missing_fraction: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw per-round (positives, totals) as the adaptive prober would.

    With per-address availability ``A``, the walk hits a responsive
    address after a geometric number of probes; the round stops there or
    at the 15-probe cap.  ``missing_fraction`` of rounds are dropped
    (t = 0), matching the ~5% missing/duplicate rate the cleaning stage
    sees in real data; it must lie in [0, 1].

    Both uniform draws are full-size draws on the calling thread; the
    walk and the missing-round mask run in row slices on the row pool.
    """
    if not 0.0 <= missing_fraction <= 1.0:
        raise ValueError(f"missing_fraction must be in [0, 1], got {missing_fraction}")
    a = np.asarray(availability, dtype=np.float64)
    n_rows = len(a)
    probes = rng.random(a.shape)
    totals = np.empty(a.shape, dtype=np.int16)
    positives = np.empty(a.shape, dtype=np.int16)

    def walk(rows: slice) -> None:
        u = probes[rows]
        scratch = np.negative(a[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(u, out=u)
            np.log1p(scratch, out=scratch)
            np.divide(u, scratch, out=u)
        np.floor(u, out=u)  # failures before the first positive
        np.copyto(u, np.inf, where=~np.isfinite(u))
        np.add(u, 1, out=u)  # probes the walk needs
        np.minimum(u, max_probes, out=scratch)
        np.copyto(totals[rows], scratch, casting="unsafe")
        np.copyto(positives[rows], u <= max_probes)

    def drop_missing(rows: slice) -> None:
        kept = probes[rows] >= missing_fraction
        totals[rows] *= kept
        positives[rows] *= kept

    map_rows(walk, n_rows, _ROW_TILE)
    if missing_fraction > 0:
        rng.random(out=probes)
        map_rows(drop_missing, n_rows, _ROW_TILE)
    return positives, totals


@dataclass
class FastMeasurement:
    """World-scale measurement output (parallel to the world's blocks).

    ``labels`` uses the classifier's codes: 0 non-diurnal, 1 relaxed,
    2 strict.  ``phases`` are the 1-cycle/day FFT phases in radians.
    """

    labels: np.ndarray
    phases: np.ndarray
    dominant_cycles_per_day: np.ndarray
    diurnal_amplitude: np.ndarray
    mean_availability: np.ndarray
    schedule: RoundSchedule

    @property
    def n_blocks(self) -> int:
        return len(self.labels)

    @property
    def strict_mask(self) -> np.ndarray:
        return self.labels == 2

    @property
    def diurnal_mask(self) -> np.ndarray:
        return self.labels >= 1

    def fraction_strict(self) -> float:
        return float(self.strict_mask.mean()) if self.n_blocks else 0.0

    def fraction_diurnal(self) -> float:
        return float(self.diurnal_mask.mean()) if self.n_blocks else 0.0


def designed_mean_availability(world: InternetWorld) -> np.ndarray:
    """Long-run mean availability implied by each block's parameters."""
    lo, hi, up = world.a_low, world.a_high, world.uptime_frac
    return lo + (hi - lo) * up


def measure_world(
    world: InternetWorld,
    schedule: RoundSchedule,
    estimator: EstimatorConfig | None = None,
    classifier: ClassifierConfig | None = None,
    chunk_size: int = 2000,
    missing_fraction: float = 0.05,
    seed: int | None = None,
    history_error: float = 0.08,
) -> FastMeasurement:
    """Measure every block of a world through the real estimator+classifier.

    Work proceeds in chunks of ``chunk_size`` (at least 1) blocks to
    bound memory; each (chunk, n_rounds) array is dropped as soon as the
    next stage has what it needs.  Each layer spreads its chunk's rows
    over the row pool; the random draws stay on the calling thread.  The
    classifier reads only Â_s, so the estimator runs ``short_only`` and
    allocates no Â_l, deviation or Â_o series.

    Estimator state is seeded per block from the block's true long-run
    availability plus Gaussian ``history_error`` — the deployment's
    "historical data over several years", which is usually close but "may
    be off significantly" for changed blocks (section 2.1.1).
    """
    if not chunk_size >= 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    estimator = estimator or EstimatorConfig()
    classifier = classifier or ClassifierConfig()
    seed = world.config.seed + 7_777 if seed is None else seed
    times = schedule.times()
    trim = trim_to_midnight(times, schedule.round_s)
    restarts = schedule.restart_rounds()

    n = world.n_blocks
    labels = np.zeros(n, dtype=np.int8)
    phases = np.zeros(n)
    dominant = np.zeros(n)
    amplitude = np.zeros(n)
    mean_avail = np.zeros(n)

    children = np.random.SeedSequence(seed).spawn(
        (n + chunk_size - 1) // chunk_size
    )
    for chunk_no, start in enumerate(range(0, n, chunk_size)):
        idx = np.arange(start, min(start + chunk_size, n))
        rng = np.random.default_rng(children[chunk_no])
        a_true = synthesize_availability(world, idx, times, rng)
        mean_avail[idx] = a_true.mean(axis=1)
        a_probed = apply_restart_bias(a_true, restarts, rng)
        del a_true
        positives, totals = adaptive_counts(
            a_probed, rng, missing_fraction=missing_fraction
        )
        del a_probed
        a_init = np.clip(
            designed_mean_availability(world)[idx]
            + rng.normal(0.0, history_error, len(idx)),
            0.02,
            0.99,
        )
        a_short = estimate_series(
            positives,
            totals,
            estimator,
            restart_rounds=restarts,
            initial_availability=a_init,
            short_only=True,
        ).a_short
        batch = classify_many(a_short[:, trim], schedule.round_s, classifier)
        labels[idx] = batch.labels
        phases[idx] = batch.phases
        dominant[idx] = batch.dominant_cycles_per_day
        amplitude[idx] = batch.diurnal_amplitude

    return FastMeasurement(
        labels=labels,
        phases=phases,
        dominant_cycles_per_day=dominant,
        diurnal_amplitude=amplitude,
        mean_availability=mean_avail,
        schedule=schedule,
    )
