"""Strict/relaxed diurnal classification of availability spectra (section 2.2).

A block is **strictly diurnal** when the strongest non-DC frequency is the
1-cycle-per-day bin (``N_d`` or ``N_d+1``), its amplitude is at least twice
the next strongest *non-harmonic* frequency, and it exceeds every harmonic.
It is **relaxed diurnal** when the strongest frequency is at 1 cycle/day or
the first harmonic, with no ratio requirement.  Phase is read from the
winning diurnal bin and is only meaningful for (strictly or relaxed)
diurnal blocks — for anything else it is effectively random.

Degraded inputs get a fourth verdict, **insufficient data**: when the
cleaned series still contains NaNs, or its :class:`~repro.core.timeseries.
QualityReport` shows too many missing rounds, the classifier refuses to
label rather than running an FFT over manufactured fill values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.timeseries import QualityReport

from repro.core.spectral import (
    Spectrum,
    compute_spectra,
    compute_spectrum,
    diurnal_bin,
    diurnal_candidates,
    harmonic_bins,
)
from repro.core.rowpool import map_rows
from repro.obs.registry import NULL_REGISTRY

__all__ = [
    "ClassifierConfig",
    "DiurnalBatch",
    "DiurnalClass",
    "DiurnalReport",
    "classify_many",
    "classify_series",
    "classify_spectrum",
    "decide_label",
    "insufficient_report",
    "reports_equal",
    "set_metrics",
]


class DiurnalClass(Enum):
    """Diurnal label of one block."""

    NON_DIURNAL = "non-diurnal"
    RELAXED = "relaxed"
    STRICT = "strict"
    INSUFFICIENT = "insufficient-data"

    @property
    def is_strict(self) -> bool:
        return self is DiurnalClass.STRICT

    @property
    def is_diurnal(self) -> bool:
        """True for the paper's "either" set: strict or relaxed."""
        return self in (DiurnalClass.STRICT, DiurnalClass.RELAXED)

    @property
    def is_classified(self) -> bool:
        """False only for the insufficient-data refusal verdict."""
        return self is not DiurnalClass.INSUFFICIENT


class _Instruments:
    """Pre-bound classification metrics (null registry by default).

    Bound once per :func:`set_metrics` call so the per-classification
    cost is a dict lookup and a no-op (or locked) increment — never a
    registry lookup on the hot path.
    """

    __slots__ = (
        "enabled",
        "verdicts",
        "gate_trips",
        "nan_refusals",
        "fft_seconds",
        "fft_batch_seconds",
    )

    # FFT windows run tens of microseconds to tens of milliseconds.
    _FFT_BUCKETS = (
        1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
        1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1,
    )

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.verdicts = {
            label: registry.counter(
                "classify_verdicts_total", label=label.value
            )
            for label in DiurnalClass
        }
        self.gate_trips = registry.counter("classify_quality_gate_trips_total")
        self.nan_refusals = registry.counter("classify_nan_refusals_total")
        self.fft_seconds = registry.histogram(
            "classify_fft_seconds", buckets=self._FFT_BUCKETS, path="single"
        )
        self.fft_batch_seconds = registry.histogram(
            "classify_fft_seconds", buckets=self._FFT_BUCKETS, path="batch"
        )


_obs = _Instruments(NULL_REGISTRY)


def set_metrics(registry) -> None:
    """Point this module's verdict/gate/FFT metrics at ``registry``.

    Pass ``None`` (or :data:`repro.obs.registry.NULL_REGISTRY`) to turn
    instrumentation back off.  Usually called through
    :func:`repro.obs.install_metrics`.
    """
    global _obs
    _obs = _Instruments(registry if registry is not None else NULL_REGISTRY)


@dataclass(frozen=True)
class ClassifierConfig:
    """Classification thresholds.

    Attributes:
        strict_ratio: the diurnal amplitude must be at least this multiple
            of the strongest non-harmonic competitor (paper: 2.0).
        max_harmonic: highest harmonic multiple treated as harmonic energy.
        harmonic_tolerance: ± bins of slack around each harmonic.
        max_gap_fraction: when a quality report is supplied, refuse to
            classify series missing more than this fraction of rounds.
        max_longest_gap: likewise refuse when the longest gap exceeds this
            many rounds (``None`` disables the check).
    """

    strict_ratio: float = 2.0
    max_harmonic: int = 8
    harmonic_tolerance: int = 1
    max_gap_fraction: float = 0.35
    max_longest_gap: int | None = None

    def __post_init__(self) -> None:
        if self.strict_ratio < 1.0:
            raise ValueError("strict_ratio must be at least 1")
        if not 0.0 <= self.max_gap_fraction <= 1.0:
            raise ValueError("max_gap_fraction must be in [0, 1]")
        if self.max_longest_gap is not None and self.max_longest_gap < 0:
            raise ValueError("max_longest_gap must be non-negative")


@dataclass
class DiurnalReport:
    """Classification outcome for one block.

    Attributes:
        label: strict / relaxed / non-diurnal.
        diurnal_k: the winning diurnal candidate bin.
        diurnal_amplitude: amplitude at that bin.
        dominant_k: the strongest non-DC bin overall.
        dominant_cycles_per_day: its frequency in cycles/day.
        strongest_other: strongest non-diurnal, non-harmonic amplitude.
        strongest_harmonic: strongest harmonic amplitude.
        phase: FFT phase (radians) at the winning diurnal bin; meaningful
            only when the block is diurnal.
    """

    label: DiurnalClass
    diurnal_k: int
    diurnal_amplitude: float
    dominant_k: int
    dominant_cycles_per_day: float
    strongest_other: float
    strongest_harmonic: float
    phase: float

    @property
    def is_strict(self) -> bool:
        return self.label.is_strict

    @property
    def is_diurnal(self) -> bool:
        return self.label.is_diurnal

    @property
    def is_classified(self) -> bool:
        """False only for the :data:`DiurnalClass.INSUFFICIENT` refusal."""
        return self.label.is_classified

    @property
    def phase_valid(self) -> bool:
        return self.label.is_diurnal


def insufficient_report() -> DiurnalReport:
    """The explicit refusal verdict for series too degraded to classify."""
    return DiurnalReport(
        label=DiurnalClass.INSUFFICIENT,
        diurnal_k=-1,
        diurnal_amplitude=float("nan"),
        dominant_k=-1,
        dominant_cycles_per_day=float("nan"),
        strongest_other=float("nan"),
        strongest_harmonic=float("nan"),
        phase=float("nan"),
    )


def decide_label(
    dominant_is_diurnal: bool,
    dominant_in_first_harmonic: bool,
    diurnal_amplitude: float,
    strongest_other: float,
    strongest_harmonic: float,
    config: ClassifierConfig,
) -> DiurnalClass:
    """The section 2.2 decision rule on already-reduced amplitudes.

    Shared by the batch classifier and the streaming engine, so the two
    paths cannot drift: strict needs the diurnal bin to dominate overall,
    beat every harmonic, and exceed ``strict_ratio`` times the strongest
    non-harmonic competitor; relaxed only needs dominance at 1 cycle/day
    or its first harmonic.
    """
    strict = (
        dominant_is_diurnal
        and diurnal_amplitude >= config.strict_ratio * strongest_other
        and diurnal_amplitude > strongest_harmonic
    )
    if strict:
        return DiurnalClass.STRICT
    if dominant_is_diurnal or dominant_in_first_harmonic:
        return DiurnalClass.RELAXED
    return DiurnalClass.NON_DIURNAL


def reports_equal(a: DiurnalReport, b: DiurnalReport) -> bool:
    """Field-wise report equality treating NaN as equal to NaN.

    Dataclass ``==`` is false for two insufficient-data reports because
    their NaN fields compare unequal; parity oracles (streaming versus
    batch) need the NaN-tolerant comparison.
    """
    if a.label is not b.label:
        return False
    for field in (
        "diurnal_k",
        "diurnal_amplitude",
        "dominant_k",
        "dominant_cycles_per_day",
        "strongest_other",
        "strongest_harmonic",
        "phase",
    ):
        va, vb = getattr(a, field), getattr(b, field)
        if va != vb and not (np.isnan(va) and np.isnan(vb)):
            return False
    return True


def _bin_sets(
    n_samples: int, round_s: float, config: ClassifierConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index sets shared by scalar and batch classification.

    Returns (diurnal candidate bins, first-harmonic bins, all harmonic bins,
    "other" bins: everything non-DC that is neither diurnal nor harmonic).
    """
    n_bins = n_samples // 2 + 1
    k_d = diurnal_bin(n_samples, round_s)
    cand = np.array(diurnal_candidates(n_samples, round_s), dtype=np.int64)
    harmonics = harmonic_bins(
        k_d, n_bins, max_harmonic=config.max_harmonic,
        tolerance=config.harmonic_tolerance,
    )
    first = harmonic_bins(
        k_d, n_bins, max_harmonic=2, tolerance=config.harmonic_tolerance
    )
    mask = np.ones(n_bins, dtype=bool)
    mask[0] = False
    mask[cand] = False
    mask[harmonics] = False
    others = np.flatnonzero(mask)
    return cand, first, harmonics, others


def classify_spectrum(
    spectrum: Spectrum, config: ClassifierConfig | None = None
) -> DiurnalReport:
    """Classify one block from its spectrum."""
    config = config or ClassifierConfig()
    if spectrum.coefficients.ndim != 1:
        raise ValueError("classify_spectrum takes a single-block spectrum")
    if spectrum.n_samples < 4:
        raise ValueError("series too short to classify")
    amps = spectrum.amplitudes
    cand, first, harmonics, others = _bin_sets(
        spectrum.n_samples, spectrum.round_s, config
    )
    if len(cand) == 0:
        raise ValueError("observation shorter than one day; no diurnal bin")

    k_best = int(cand[np.argmax(amps[cand])])
    diurnal_amp = float(amps[k_best])
    strongest_other = float(amps[others].max()) if len(others) else 0.0
    strongest_harmonic = float(amps[harmonics].max()) if len(harmonics) else 0.0
    dominant_k = spectrum.dominant_bin()

    label = decide_label(
        dominant_is_diurnal=dominant_k in cand,
        dominant_in_first_harmonic=dominant_k in first,
        diurnal_amplitude=diurnal_amp,
        strongest_other=strongest_other,
        strongest_harmonic=strongest_harmonic,
        config=config,
    )

    _obs.verdicts[label].inc()
    return DiurnalReport(
        label=label,
        diurnal_k=k_best,
        diurnal_amplitude=diurnal_amp,
        dominant_k=dominant_k,
        dominant_cycles_per_day=spectrum.cycles_per_day(dominant_k),
        strongest_other=strongest_other,
        strongest_harmonic=strongest_harmonic,
        phase=spectrum.phase(k_best),
    )


def classify_series(
    values: np.ndarray,
    round_s: float,
    config: ClassifierConfig | None = None,
    quality: "QualityReport | None" = None,
) -> DiurnalReport:
    """Classify one block straight from its cleaned availability series.

    When a :class:`~repro.core.timeseries.QualityReport` is supplied the
    classifier first checks it against the config's quality thresholds and
    returns the ``insufficient-data`` verdict instead of classifying a
    series that is mostly fill.  A series still containing NaNs (the
    ``nan`` fill policy, or gaps past ``max_gap``) is likewise refused —
    an FFT over NaNs yields garbage, not a label.
    """
    config = config or ClassifierConfig()
    if quality is not None and not quality.usable(
        max_gap_fraction=config.max_gap_fraction,
        max_longest_gap=config.max_longest_gap,
    ):
        _obs.gate_trips.inc()
        _obs.verdicts[DiurnalClass.INSUFFICIENT].inc()
        return insufficient_report()
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        _obs.nan_refusals.inc()
        _obs.verdicts[DiurnalClass.INSUFFICIENT].inc()
        return insufficient_report()
    if _obs.enabled:
        t0 = time.perf_counter()
        spectrum = compute_spectrum(values, round_s)
        _obs.fft_seconds.observe(time.perf_counter() - t0)
    else:
        spectrum = compute_spectrum(values, round_s)
    return classify_spectrum(spectrum, config)


@dataclass
class DiurnalBatch:
    """Vectorized classification results for many blocks.

    ``labels`` uses integer codes 0 (non-diurnal), 1 (relaxed), 2 (strict),
    and -1 (insufficient data — the row contained NaNs); the masks and
    :meth:`label_of` give the friendlier view.
    """

    labels: np.ndarray
    phases: np.ndarray
    diurnal_k: np.ndarray
    diurnal_amplitude: np.ndarray
    dominant_k: np.ndarray
    dominant_cycles_per_day: np.ndarray

    LABEL_CODES = {
        DiurnalClass.NON_DIURNAL: 0,
        DiurnalClass.RELAXED: 1,
        DiurnalClass.STRICT: 2,
        DiurnalClass.INSUFFICIENT: -1,
    }

    @property
    def n_blocks(self) -> int:
        return len(self.labels)

    @property
    def strict_mask(self) -> np.ndarray:
        return self.labels == 2

    @property
    def diurnal_mask(self) -> np.ndarray:
        """Strict or relaxed — the paper's "either" set."""
        return self.labels >= 1

    @property
    def insufficient_mask(self) -> np.ndarray:
        """Rows refused for insufficient data."""
        return self.labels == -1

    def label_of(self, i: int) -> DiurnalClass:
        for label, code in self.LABEL_CODES.items():
            if code == self.labels[i]:
                return label
        raise ValueError(f"bad label code {self.labels[i]}")

    def fraction_strict(self) -> float:
        return float(self.strict_mask.mean()) if self.n_blocks else 0.0

    def fraction_diurnal(self) -> float:
        return float(self.diurnal_mask.mean()) if self.n_blocks else 0.0


# Rows per slice of classify_many: a 64-row spectrum is ~2 MB on
# 35-day A12W series, so each worker thread reuses small temporaries.
_CLASSIFY_TILE = 64


def classify_many(
    matrix: np.ndarray, round_s: float, config: ClassifierConfig | None = None
) -> DiurnalBatch:
    """Classify many blocks at once; rows of ``matrix`` are cleaned series.

    Bit-for-bit equivalent to calling :func:`classify_series` per row
    (tested), but runs batched FFTs and vectorized bin reductions over
    slices of ``_CLASSIFY_TILE`` rows on the row pool
    (:mod:`repro.core.rowpool`).  Rows containing NaN (degraded series
    under the ``nan`` fill policy) receive label code -1 (insufficient
    data) and a NaN phase.  With metrics on, the FFT time of all slices
    is observed once per call.
    """
    config = config or ClassifierConfig()
    matrix = np.asarray(matrix, dtype=np.float64)
    nan_rows = np.isnan(matrix).any(axis=1)
    n_blocks, n_samples = matrix.shape
    cand, first, harmonics, others = _bin_sets(n_samples, round_s, config)
    if len(cand) == 0:
        raise ValueError("observation shorter than one day; no diurnal bin")

    labels = np.zeros(n_blocks, dtype=np.int8)
    phases = np.empty(n_blocks)
    k_best = np.empty(n_blocks, dtype=np.int64)
    diurnal_amp = np.empty(n_blocks)
    dominant_k = np.empty(n_blocks, dtype=np.int64)
    day_cycles = np.empty(n_blocks)
    fft_seconds = []

    def classify_rows(rows: slice) -> None:
        block, nan = matrix[rows], nan_rows[rows]
        if nan.any():
            # Zero out degraded rows so the batched FFT stays finite;
            # their labels are overridden below.
            block = np.where(nan[:, None], 0.0, block)
        if _obs.enabled:
            t0 = time.perf_counter()
            coeff = compute_spectra(block, round_s).coefficients
            fft_seconds.append(time.perf_counter() - t0)
        else:
            coeff = compute_spectra(block, round_s).coefficients
        amps = np.abs(coeff)
        n = len(amps)
        cand_amps = amps[:, cand]
        best_idx = np.argmax(cand_amps, axis=1)
        best = k_best[rows] = cand[best_idx]
        amp = diurnal_amp[rows] = cand_amps[np.arange(n), best_idx]
        strongest_other = (
            amps[:, others].max(axis=1) if len(others) else np.zeros(n)
        )
        strongest_harmonic = (
            amps[:, harmonics].max(axis=1) if len(harmonics) else np.zeros(n)
        )
        dominant = dominant_k[rows] = np.argmax(amps[:, 1:], axis=1) + 1

        dominant_is_diurnal = np.isin(dominant, cand)
        strict = (
            dominant_is_diurnal
            & (amp >= config.strict_ratio * strongest_other)
            & (amp > strongest_harmonic)
        )
        relaxed = dominant_is_diurnal | np.isin(dominant, first)
        row_labels = labels[rows]
        row_labels[relaxed] = 1
        row_labels[strict] = 2
        row_labels[nan] = -1

        row_phases = phases[rows]
        row_phases[:] = np.angle(coeff[np.arange(n), best])
        row_phases[nan] = np.nan
        np.multiply(dominant / (round_s * n_samples), 86400.0, out=day_cycles[rows])

    map_rows(classify_rows, n_blocks, _CLASSIFY_TILE)

    if _obs.enabled:
        _obs.fft_batch_seconds.observe(sum(fft_seconds))
        for label, code in DiurnalBatch.LABEL_CODES.items():
            n = int((labels == code).sum())
            if n:
                _obs.verdicts[label].inc(n)
        n_nan = int(nan_rows.sum())
        if n_nan:
            _obs.nan_refusals.inc(n_nan)

    return DiurnalBatch(
        labels=labels,
        phases=phases,
        diurnal_k=k_best,
        diurnal_amplitude=diurnal_amp,
        dominant_k=dominant_k,
        dominant_cycles_per_day=day_cycles,
    )
