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

    Two ``(blocks, rounds)`` buffers carry every step in place (the AR
    filter allocates the third), and the lease cosine is evaluated only
    for blocks with a nonzero ``lease_amp``.
    """
    indices = np.asarray(indices, dtype=np.intp)
    day_frac = (times / 86400.0) % 1.0
    onset = world.onset_frac[indices]
    a = np.subtract(day_frac[None, :], onset[:, None])
    # x = (day_frac - onset) % 1.0, the time since onset in days.  With
    # both terms in [0, 1] the difference lies in [-1, 1), where numpy's
    # remainder is exactly x + (x < 0) (a -0.0 becomes +0.0 either way),
    # at a fraction of the cost.
    if ((onset >= 0) & (onset <= 1)).all() and (day_frac < 1).all():
        np.add(a, a < 0, out=a)
    else:
        np.remainder(a, 1.0, out=a)
    up = world.uptime_frac[indices][:, None]
    tau = 0.0625  # 90-minute ramps
    scratch = np.subtract(a, up)
    np.divide(scratch, tau, out=scratch)
    np.clip(scratch, 0.0, 1.0, out=scratch)
    np.divide(a, tau, out=a)
    np.clip(a, 0.0, 1.0, out=a)
    window = np.subtract(a, scratch, out=a)
    lo = world.a_low[indices][:, None]
    hi = world.a_high[indices][:, None]
    np.multiply(hi - lo, window, out=a)
    np.add(lo, a, out=a)

    # Competing lease-style periodicity (see internet._sample_lease_cpd).
    rows = np.flatnonzero(world.lease_amp[indices])
    if rows.size:
        sub = indices[rows][:, None]
        lease = np.multiply(
            2 * np.pi * world.lease_cpd[sub], times[None, :], out=scratch[: rows.size]
        )
        np.divide(lease, 86400.0, out=lease)
        np.add(lease, world.lease_phase[sub], out=lease)
        np.cos(lease, out=lease)
        np.multiply(world.lease_amp[sub], lease, out=lease)
        a[rows] += lease

    # AR(1) noise, one chain per block.
    from scipy.signal import lfilter

    sigma = world.noise_sigma[indices][:, None]
    # rng.normal(0.0, 1.0, a.shape) is 0.0 + 1.0·z over this same stream
    # of standard normals z; draw them straight into the scratch buffer.
    shocks = rng.standard_normal(out=scratch)
    np.multiply(shocks, sigma, out=shocks)
    np.multiply(shocks, 0.55, out=shocks)
    phi = 0.7
    noise = lfilter([1.0], [1.0, -phi], shocks, axis=1)
    np.add(a, noise, out=a)
    return np.clip(a, 0.005, 0.995, out=a)


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
    out = np.array(availability, dtype=np.float64, copy=True)
    bias = rng.normal(0.0, bias_sigma, size=(out.shape[0], 1))
    n_rounds = out.shape[1]
    for offset, weight in enumerate(decay):
        rounds = restart_rounds + offset
        rounds = rounds[rounds < n_rounds]
        out[:, rounds] += bias * weight
    return np.clip(out, 0.005, 0.995, out=out)


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
    sees in real data.
    """
    a = np.asarray(availability, dtype=np.float64)
    probes = rng.random(a.shape)
    scratch = np.negative(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(probes, out=probes)
        np.log1p(scratch, out=scratch)
        np.divide(probes, scratch, out=probes)
    np.floor(probes, out=probes)  # failures before the first positive
    np.copyto(probes, np.inf, where=~np.isfinite(probes))
    np.add(probes, 1, out=probes)  # probes the walk needs
    totals = np.minimum(probes, max_probes, out=scratch).astype(np.int16)
    positives = (probes <= max_probes).astype(np.int16)
    if missing_fraction > 0:
        kept = rng.random(out=probes) >= missing_fraction
        totals *= kept
        positives *= kept
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

    Work proceeds in chunks of ``chunk_size`` blocks to bound memory;
    each (chunk, n_rounds) array is dropped as soon as the next stage
    has what it needs.

    Estimator state is seeded per block from the block's true long-run
    availability plus Gaussian ``history_error`` — the deployment's
    "historical data over several years", which is usually close but "may
    be off significantly" for changed blocks (section 2.1.1).
    """
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
