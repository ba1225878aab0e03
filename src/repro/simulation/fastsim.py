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

# The AR(1) noise recurrence steps round by round over ``_CHUNK_ROUNDS``
# rounds of round-major scratch at a time, as ``estimate_series`` does.
# Its per-round numpy calls hold the GIL, so it runs in wider slices of
# ``_NOISE_TILE`` blocks: 128-row slices cost more in call overhead than
# they gain, while 256-row ones still let one thread draw the next
# slice's shocks while another filters (2,000 blocks × 35 days, 2 CPUs).
_CHUNK_ROUNDS = 64
_NOISE_TILE = 256


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

    The output is the only ``(blocks, rounds)`` buffer, and two passes
    on the row pool (:mod:`repro.core.rowpool`) work in it in place.
    The first draws the standard normal shocks straight into it, one
    ``_NOISE_TILE``-row slice at a time in row order (``map_rows``'
    ``draw`` hook; the trapezoid draws nothing, so drawing first moves
    no draw), and runs the AR(1) filter ``y[n] = x[n] + 0.7·y[n−1]``
    from ``y[−1] = 0`` on each slice, stepped in ``_CHUNK_ROUNDS``-round
    chunks on round-major scratch (bit for bit the direct-form update
    of ``scipy.signal.lfilter([1], [1, −0.7])``).  The second computes
    the trapezoid and lease cosine in ``_ROW_TILE``-row tile buffers and
    adds them to the noise before the clip.  The lease cosine is
    evaluated only for blocks with a nonzero ``lease_amp``.
    """
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
    n_blocks, n_rounds = len(indices), len(times)
    a = np.empty((n_blocks, n_rounds))

    # AR(1) noise, one chain per block.
    sigma = world.noise_sigma[indices]
    phi = 0.7

    def draw_shocks(rows: slice) -> np.ndarray:
        # rng.normal(0.0, 1.0, shape) is 0.0 + 1.0·z over this same
        # stream of standard normals z.
        return rng.standard_normal(out=a[rows])

    def filter_noise(rows: slice, noise: np.ndarray) -> None:
        n = len(noise)
        y = np.empty((_CHUNK_ROUNDS + 1, n))  # round-major; row 0 carries in
        y[0] = 0.0
        carried = np.empty(n)
        scale = sigma[rows]
        for r0 in range(0, n_rounds, _CHUNK_ROUNDS):
            c = min(_CHUNK_ROUNDS, n_rounds - r0)
            cols = slice(r0, r0 + c)
            x = y[1 : c + 1]
            np.copyto(x, noise[:, cols].T)
            np.multiply(x, scale, out=x)
            np.multiply(x, 0.55, out=x)  # the shocks
            for j in range(c):
                np.multiply(y[j], phi, out=carried)
                np.add(x[j], carried, out=x[j])
            noise[:, cols] = x.T
            y[0] = y[c]

    def add_window(rows: slice) -> None:
        noise = a[rows]
        x = np.empty(noise.shape)
        s = np.empty(noise.shape)
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

        np.add(x, noise, out=noise)
        np.clip(noise, 0.005, 0.995, out=noise)

    map_rows(filter_noise, n_blocks, _NOISE_TILE, draw=draw_shocks)
    map_rows(add_window, n_blocks, _ROW_TILE)
    return a


def apply_restart_bias(
    availability: np.ndarray,
    restart_rounds: np.ndarray,
    rng: np.random.Generator,
    bias_sigma: float = 0.13,
    decay: tuple = (1.0, 0.7, 0.45, 0.25),
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Perturb availability after each prober restart (Figure 10 artifact).

    A restarted prober re-walks its address permutation from the top, so
    the first few rounds after a restart over/under-sample particular
    addresses.  Each block gets a fixed signed bias that decays over a few
    rounds — a pulse train at the restart frequency (~4.3 cycles/day for
    the 5.5-hour A_12w policy) that dominates the spectrum only of blocks
    whose genuine daily signal is nearly flat, the paper's ~3%.

    ``restart_rounds`` must be non-negative (ValueError otherwise); rounds
    past the series end are ignored.  Returns a new array and leaves
    ``availability`` unmodified, except that with no restarts it returns
    ``availability`` itself.  With ``out`` (a float64 array of the same
    shape, which may be ``availability`` itself) the result is written
    there and ``out`` is returned.
    """
    restart_rounds = np.asarray(restart_rounds)
    if (restart_rounds < 0).any():
        raise ValueError(
            f"restart_rounds must be non-negative, got {restart_rounds.min()}"
        )
    src = np.asarray(availability)
    if len(restart_rounds) == 0:
        if out is None:
            return availability
        if out is not src:
            np.copyto(out, src, casting="unsafe")
        return out
    if out is None:
        out = np.empty(src.shape)
    bias = rng.normal(0.0, bias_sigma, size=(out.shape[0], 1))
    n_rounds = out.shape[1]
    pulses = []
    for offset, weight in enumerate(decay):
        rounds = restart_rounds + offset
        pulses.append((rounds[rounds < n_rounds], weight))

    def bias_rows(rows: slice) -> None:
        x = out[rows]
        if out is not src:
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

    The walk and the missing-round mask run in ``_ROW_TILE``-row slices
    on the row pool, each on its own uniform draw.  The draws are made
    in row order (``map_rows``' ``draw`` hook), so they equal one
    full-size draw per pass while only slice-sized buffers are live.
    """
    if not 0.0 <= missing_fraction <= 1.0:
        raise ValueError(f"missing_fraction must be in [0, 1], got {missing_fraction}")
    a = np.asarray(availability, dtype=np.float64)
    n_rows = len(a)
    totals = np.empty(a.shape, dtype=np.int16)
    positives = np.empty(a.shape, dtype=np.int16)

    def draw(rows: slice) -> np.ndarray:
        return rng.random(a[rows].shape)

    def walk(rows: slice, u: np.ndarray) -> None:
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

    def drop_missing(rows: slice, u: np.ndarray) -> None:
        kept = u >= missing_fraction
        totals[rows] *= kept
        positives[rows] *= kept

    map_rows(walk, n_rows, _ROW_TILE, draw=draw)
    if missing_fraction > 0:
        map_rows(drop_missing, n_rows, _ROW_TILE, draw=draw)
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
    bound memory, and only one (chunk, n_rounds) float64 array is live
    at a time: the restart bias is applied in place to the synthesized
    availability once its mean is read, the count draws are made per
    row tile, and the classifier reads only Â_s, so the estimator runs
    ``short_only`` and allocates no Â_l, deviation or Â_o series.  Each
    layer spreads its chunk's rows over the row pool, with every random
    draw made in row order.

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

    designed = designed_mean_availability(world)
    children = np.random.SeedSequence(seed).spawn(
        (n + chunk_size - 1) // chunk_size
    )
    for chunk_no, start in enumerate(range(0, n, chunk_size)):
        idx = np.arange(start, min(start + chunk_size, n))
        rng = np.random.default_rng(children[chunk_no])
        a = synthesize_availability(world, idx, times, rng)
        mean_avail[idx] = a.mean(axis=1)
        # The true availability is not read again: bias it in place.
        a = apply_restart_bias(a, restarts, rng, out=a)
        positives, totals = adaptive_counts(
            a, rng, missing_fraction=missing_fraction
        )
        del a
        a_init = np.clip(
            designed[idx] + rng.normal(0.0, history_error, len(idx)),
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
        del positives, totals
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
