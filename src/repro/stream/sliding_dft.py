"""Sliding-window DFT maintained incrementally at selected bins.

The classifier's hot-path quantities — DC mean, the 1-cycle/day bins,
and their harmonics — are a handful of coefficients out of an
``n//2 + 1``-bin spectrum.  This module maintains exactly those
coefficients over the trailing ``n``-round window using the sliding-DFT
recurrence

    X'_k = (X_k − x_evicted + x_entering) · e^{+2πjk/n}

so each new round costs O(tracked bins) instead of the O(n log n) a full
re-FFT per round would.  Conventions match ``np.fft.rfft``: for window
samples ``x[0..n-1]`` (oldest first), ``X_k = Σ x[i]·e^{−2πjk·i/n}``, so
amplitudes and phases agree with :class:`repro.core.spectral.Spectrum`.

Floating-point drift from the repeated rotations is bounded by periodic
:meth:`SlidingDFT.reseed` from the exact Goertzel transform (its basis is
computed once per tracker); the engine reseeds once per window length by
default.
"""

from __future__ import annotations

import numpy as np

from repro.core.spectral import goertzel_basis
from repro.stream.window import grow_rows

__all__ = ["SlidingDFT"]


class SlidingDFT:
    """Tracked DFT coefficients over sliding windows of ``n`` samples.

    Row-batched: ``table[q]`` holds row ``q``'s coefficients, so the
    engine slides every block's window with one recurrence
    (:meth:`slide_rows`).  The scalar methods take a ``row`` (default
    0); a one-row tracker is the plain single-window DFT and
    :attr:`coefficients` is row 0.
    """

    def __init__(self, n: int, bins, rows: int = 1) -> None:
        if n < 2:
            raise ValueError("window must span at least 2 samples")
        bins = np.unique(np.asarray(bins, dtype=np.int64))
        n_bins = n // 2 + 1
        if len(bins) == 0:
            raise ValueError("no bins to track")
        if bins.min() < 0 or bins.max() >= n_bins:
            raise ValueError(
                f"tracked bins must be in [0, {n_bins}) for window {n}"
            )
        self.n = n
        self.bins = bins
        self._index = {int(k): i for i, k in enumerate(bins)}
        self._rotation = np.exp(2j * np.pi * bins / n)
        self._basis: np.ndarray | None = None
        self.table = np.empty((0, len(bins)), dtype=np.complex128)
        self.grow(rows)
        self.table[:rows] = 0
        self.n_slides = 0

    @property
    def n_tracked(self) -> int:
        return len(self.bins)

    @property
    def coefficients(self) -> np.ndarray:
        """Row 0's coefficients (the single-window view)."""
        return self.table[0]

    def grow(self, n_rows: int) -> None:
        """Make room for ``n_rows`` rows; zero new rows before use."""
        if n_rows > len(self.table):
            self.table = grow_rows(self.table, n_rows)

    def slide(self, entering: float, evicted: float = 0.0, row: int = 0) -> None:
        """Advance one window one sample: O(tracked bins).

        ``entering`` is the newest sample; ``evicted`` the sample falling
        off the old end (0 while the window is still priming, matching a
        zero-padded history).
        """
        self.table[row] = (self.table[row] - evicted + entering) * self._rotation
        self.n_slides += 1

    def slide_rows(
        self, rows: np.ndarray, entering: np.ndarray, evicted: np.ndarray
    ) -> None:
        """:meth:`slide` for many distinct rows with one recurrence.

        Element for element the same operations as :meth:`slide`, so the
        coefficients are bitwise equal to sliding each row alone.
        """
        self.table[rows] = (
            self.table[rows] - evicted[:, None] + entering[:, None]
        ) * self._rotation
        self.n_slides += len(rows)

    def adjust(self, offset: int, delta: float, row: int = 0) -> None:
        """Apply a correction ``delta`` at window position ``offset``.

        ``offset`` counts from the oldest retained sample (0) to the
        newest (n − 1); used when a retained sample's value is revised in
        place rather than slid in.
        """
        if not 0 <= offset < self.n:
            raise ValueError(f"offset {offset} outside window of {self.n}")
        self.table[row] = self.table[row] + delta * np.exp(
            -2j * np.pi * self.bins * offset / self.n
        )

    def reseed(self, values: np.ndarray, row: int = 0) -> None:
        """Recompute exactly from the full window (drift control).

        ``values`` must be the current window contents, oldest first,
        NaN-free (the engine substitutes 0 for not-yet-observed rounds,
        consistent with what :meth:`slide` accumulated).
        """
        values = np.asarray(values, dtype=np.float64)
        if len(values) != self.n:
            raise ValueError(
                f"reseed needs exactly {self.n} samples, got {len(values)}"
            )
        if self._basis is None:
            self._basis = goertzel_basis(self.n, self.bins)
        # Bitwise the Goertzel transform of ``values`` at the tracked bins.
        self.table[row] = self._basis @ values

    def coefficient(self, k: int, row: int = 0) -> complex:
        return complex(self.table[row, self._index[int(k)]])

    def amplitude(self, k: int, row: int = 0) -> float:
        return abs(self.coefficient(k, row))

    def amplitudes(self, bins, row: int = 0) -> np.ndarray:
        return np.abs(self.table[row, [self._index[int(k)] for k in bins]])

    def phase(self, k: int, row: int = 0) -> float:
        return float(np.angle(self.coefficient(k, row)))

    def mean(self, row: int = 0) -> float:
        """Window mean, read from the DC bin (bin 0 must be tracked)."""
        return self.coefficient(0, row).real / self.n
