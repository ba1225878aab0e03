"""Spectral machinery: DFT amplitudes, phases, diurnal bins and harmonics.

Given an evenly sampled availability series of ``n`` rounds at period ``R``
seconds, bin ``k`` of the DFT corresponds to frequency ``k / (R·n)`` Hz,
i.e. ``k`` cycles over the whole observation.  For a window spanning ``N_d``
whole days, one cycle per day lands exactly in bin ``k = N_d`` — the paper
inspects that bin, plus ``N_d + 1`` to absorb noise and imperfect day
alignment (section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "compute_spectra",
    "compute_spectrum",
    "diurnal_bin",
    "diurnal_candidates",
    "goertzel",
    "goertzel_basis",
    "harmonic_bins",
]

DAY_SECONDS = 86400.0


@dataclass
class Spectrum:
    """One block's one-sided DFT.

    Attributes:
        coefficients: complex rfft output, bins ``0 .. n//2``.
        n_samples: length of the input series.
        round_s: sampling period in seconds.
    """

    coefficients: np.ndarray
    n_samples: int
    round_s: float

    @property
    def amplitudes(self) -> np.ndarray:
        """Magnitude per bin (bin 0 is the DC component)."""
        return np.abs(self.coefficients)

    @property
    def n_bins(self) -> int:
        return len(self.coefficients)

    def _check_bin(self, k: int) -> None:
        # Negative indices would silently wrap to the mirrored bin via
        # numpy indexing; refuse anything outside the one-sided spectrum.
        if not 0 <= k < self.n_bins:
            raise ValueError(
                f"bin {k} out of range: valid bins are 0..{self.n_bins - 1} "
                f"for this {self.n_bins}-bin one-sided spectrum "
                f"({self.n_samples} samples)"
            )

    def phase(self, k: int) -> float:
        """Phase angle of bin ``k`` in radians, in [-pi, pi]."""
        self._check_bin(k)
        return float(np.angle(self.coefficients[k]))

    def frequency_hz(self, k: int) -> float:
        self._check_bin(k)
        return k / (self.round_s * self.n_samples)

    def cycles_per_day(self, k: int) -> float:
        """Frequency of bin ``k`` expressed in cycles per day."""
        return self.frequency_hz(k) * DAY_SECONDS

    def duration_days(self) -> float:
        return self.n_samples * self.round_s / DAY_SECONDS

    def dominant_bin(self) -> int:
        """Bin with the largest amplitude, excluding DC."""
        if self.n_bins < 2:
            raise ValueError("series too short for spectral analysis")
        return int(np.argmax(self.amplitudes[1:])) + 1


def compute_spectrum(values: np.ndarray, round_s: float) -> Spectrum:
    """DFT of one availability series (which must be NaN-free).

    The mean is *not* removed; classification ignores the DC bin instead,
    matching the paper's definition of the transform.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("compute_spectrum takes a single series")
    if np.isnan(values).any():
        raise ValueError("series contains NaN; clean it first (fill_missing)")
    return Spectrum(
        coefficients=np.fft.rfft(values), n_samples=len(values), round_s=round_s
    )


def compute_spectra(matrix: np.ndarray, round_s: float) -> Spectrum:
    """Batched DFT: ``matrix`` is (n_blocks, n_rounds); bins along axis 1.

    Returns a :class:`Spectrum` whose ``coefficients`` is 2-D; the scalar
    accessors do not apply, but :func:`repro.core.classify.classify_many`
    consumes it directly.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("compute_spectra takes a 2-D matrix")
    if np.isnan(matrix).any():
        raise ValueError("matrix contains NaN; clean it first (fill_missing)")
    return Spectrum(
        coefficients=np.fft.rfft(matrix, axis=1),
        n_samples=matrix.shape[1],
        round_s=round_s,
    )


def goertzel(values: np.ndarray, bins: np.ndarray | int) -> np.ndarray:
    """Exact DFT coefficients at selected bins only (O(n) per bin).

    Returns the same complex values ``np.fft.rfft`` would produce at those
    bins, without transforming the rest of the spectrum.  This is the
    seed/verification primitive for the streaming engine's sliding DFT,
    which maintains the same coefficients incrementally.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("goertzel takes a single series")
    if np.isnan(values).any():
        raise ValueError("series contains NaN; clean it first (fill_missing)")
    bins = np.atleast_1d(np.asarray(bins, dtype=np.int64))
    n = len(values)
    n_bins = n // 2 + 1
    if len(bins) and (bins.min() < 0 or bins.max() >= n_bins):
        raise ValueError(
            f"bins must be in [0, {n_bins}) for a {n}-sample series"
        )
    return goertzel_basis(n, bins) @ values


def goertzel_basis(n: int, bins: np.ndarray) -> np.ndarray:
    """The ``(len(bins), n)`` DFT rows :func:`goertzel` multiplies by."""
    angles = -2j * np.pi * np.outer(bins, np.arange(n)) / n
    return np.exp(angles)


def diurnal_bin(n_samples: int, round_s: float) -> int:
    """Bin index of the 1-cycle-per-day frequency (the paper's ``k = N_d``).

    Raises ValueError for observations shorter than one day, where no bin
    corresponds to the diurnal frequency (the paper uses two weeks or more).
    """
    k = int(round(n_samples * round_s / DAY_SECONDS))
    if k < 1:
        raise ValueError(
            f"observation spans {n_samples * round_s / DAY_SECONDS:.2f} days; "
            "diurnal analysis needs at least one full day"
        )
    return k


def diurnal_candidates(n_samples: int, round_s: float) -> tuple[int, ...]:
    """Diurnal bins to inspect: ``N_d`` and ``N_d + 1`` (noise allowance)."""
    k = diurnal_bin(n_samples, round_s)
    n_bins = n_samples // 2 + 1
    return tuple(b for b in (k, k + 1) if b < n_bins)


def harmonic_bins(
    k_diurnal: int, n_bins: int, max_harmonic: int = 8, tolerance: int = 1
) -> np.ndarray:
    """Bins belonging to harmonics of the diurnal frequency.

    Harmonic ``m`` (2 cycles/day and up) lives near ``m * k_diurnal``; a
    ``tolerance`` of ±1 bin absorbs the same alignment noise as the
    ``N_d + 1`` candidate.  The fundamental itself is *not* included.
    """
    bins: set[int] = set()
    for m in range(2, max_harmonic + 1):
        center = m * k_diurnal
        for delta in range(-tolerance, tolerance + m):
            b = center + delta
            if 1 <= b < n_bins:
                bins.add(b)
    return np.array(sorted(bins), dtype=np.int64)
