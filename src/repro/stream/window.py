"""Bounded ring-buffer grid for streaming ingestion, one row per block.

:class:`RoundWindow` is the streaming counterpart of
:func:`repro.core.timeseries.observations_to_grid`: observations snap to
the same round grid, duplicates resolve most-recent-wins by observation
timestamp (arrival order breaking ties, exactly like the batch path's
stable time sort), and materializing a window runs the same
:func:`~repro.core.timeseries.fill_gaps` fill with the same
:class:`~repro.core.timeseries.QualityReport` bookkeeping.  Memory is
bounded: only ``capacity`` rounds are retained per row, and the engine
advances each row's ``base`` past rounds it has finished with.

The ring is row-batched: row ``q`` is one block's grid, so the engine
keeps every block's slots in one set of ``(rows, capacity)`` arrays and
can observe many blocks with one set of array operations
(:meth:`RoundWindow.observe_rows`).  The scalar methods take a ``row``
(default 0), so a one-row ring is the plain single-block grid.
"""

from __future__ import annotations

import numpy as np

from repro.core.timeseries import QualityReport, fill_gaps, longest_nan_run

__all__ = ["RoundWindow", "grow_rows"]


def grow_rows(array: np.ndarray, n_rows: int) -> np.ndarray:
    """``array`` with room for ``n_rows`` rows; new rows are uninitialized.

    The new rows come from ``np.empty`` so a large allocation costs no
    resident memory until a row is handed out and initialized.
    """
    out = np.empty((n_rows, *array.shape[1:]), dtype=array.dtype)
    out[: len(array)] = array
    return out


class RoundWindow:
    """Sliding grids of rounds ``[base, base + capacity)``, one per row.

    Slot state per retained round: the winning value, the timestamp that
    won it (for most-recent-wins), whether it was observed, and how many
    extra observations landed on it (the duplicate count the quality
    report uses).  Unobserved slots always hold NaN, so a slot's value is
    its grid value.
    """

    def __init__(self, capacity: int, base: int = 0, rows: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.values = np.empty((0, capacity))
        self.obs_time = np.empty((0, capacity))
        self.observed = np.empty((0, capacity), dtype=bool)
        self.duplicates = np.empty((0, capacity), dtype=np.int64)
        self.bases = np.empty(0, dtype=np.int64)
        self.max_rounds = np.empty(0, dtype=np.int64)
        self.grow(rows)
        self.reset_rows(np.arange(rows), base)

    @property
    def n_rows(self) -> int:
        return len(self.bases)

    @property
    def base(self) -> int:
        """Row 0's base (the single-block view)."""
        return int(self.bases[0])

    @property
    def max_round(self) -> int:
        """Row 0's newest round (the single-block view)."""
        return int(self.max_rounds[0])

    def grow(self, n_rows: int) -> None:
        """Make room for ``n_rows`` rows; call :meth:`reset_rows` on new ones."""
        if n_rows <= self.n_rows:
            return
        self.values = grow_rows(self.values, n_rows)
        self.obs_time = grow_rows(self.obs_time, n_rows)
        self.observed = grow_rows(self.observed, n_rows)
        self.duplicates = grow_rows(self.duplicates, n_rows)
        self.bases = grow_rows(self.bases, n_rows)
        self.max_rounds = grow_rows(self.max_rounds, n_rows)

    def reset_rows(self, rows, base: int = 0) -> None:
        """Empty ``rows`` and set their base."""
        self.values[rows] = np.nan
        self.obs_time[rows] = -np.inf
        self.observed[rows] = False
        self.duplicates[rows] = 0
        self.bases[rows] = base
        self.max_rounds[rows] = base - 1

    def observe(self, r: int, time_s: float, value: float, row: int = 0) -> None:
        """Record one observation for round ``r`` (most-recent-wins).

        The caller (the engine) is responsible for dropping rounds below
        ``base`` as late and for advancing the ring before rounds at or
        past ``base + capacity`` arrive; both are errors here.
        """
        base = int(self.bases[row])
        if r < base:
            raise ValueError(f"round {r} is below the ring base {base}")
        if r >= base + self.capacity:
            raise ValueError(
                f"round {r} is beyond ring capacity "
                f"[{base}, {base + self.capacity})"
            )
        i = r % self.capacity
        if self.observed[row, i]:
            self.duplicates[row, i] += 1
            # >= so a same-timestamp later arrival wins, matching the
            # batch path's stable sort by time.
            if time_s >= self.obs_time[row, i]:
                self.values[row, i] = value
                self.obs_time[row, i] = time_s
        else:
            self.observed[row, i] = True
            self.values[row, i] = value
            self.obs_time[row, i] = time_s
        if r > self.max_rounds[row]:
            self.max_rounds[row] = r

    def observe_rows(
        self, rows: np.ndarray, r: np.ndarray, times: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """:meth:`observe` for many *distinct* rows at once, each round
        the first observation of its slot and inside its row's retained
        range (the engine's common step checks both)."""
        slots = r % self.capacity
        self.observed[rows, slots] = True
        self.values[rows, slots] = values
        self.obs_time[rows, slots] = times
        self.max_rounds[rows] = np.maximum(self.max_rounds[rows], r)

    def value_at(self, r: int, row: int = 0) -> float:
        """The winning value for round ``r``; NaN when unobserved."""
        base = self.bases[row]
        if not base <= r < base + self.capacity:
            return float("nan")
        return float(self.values[row, r % self.capacity])

    def advance_base(self, new_base: int, row: int = 0) -> None:
        """Evict every round below ``new_base`` (bounded-memory step)."""
        base = int(self.bases[row])
        if new_base <= base:
            return
        if new_base - base >= self.capacity:
            slots = slice(None)
        else:
            slots = np.arange(base, new_base) % self.capacity
        self.observed[row, slots] = False
        self.values[row, slots] = np.nan
        self.obs_time[row, slots] = -np.inf
        self.duplicates[row, slots] = 0
        self.bases[row] = new_base
        if self.max_rounds[row] < new_base - 1:
            self.max_rounds[row] = new_base - 1

    def _slots(self, start: int, n_rounds: int, row: int) -> np.ndarray:
        base = int(self.bases[row])
        if start < base or start + n_rounds > base + self.capacity:
            raise ValueError(
                f"window [{start}, {start + n_rounds}) outside retained "
                f"rounds [{base}, {base + self.capacity})"
            )
        return np.arange(start, start + n_rounds) % self.capacity

    def grid(self, start: int, n_rounds: int, row: int = 0) -> np.ndarray:
        """The raw (unfilled) grid for rounds ``[start, start + n_rounds)``."""
        return self.values[row, self._slots(start, n_rounds, row)]

    def materialize(
        self,
        start: int,
        n_rounds: int,
        policy: str = "hold",
        max_gap: int | None = None,
        row: int = 0,
    ) -> tuple[np.ndarray, QualityReport]:
        """Grid-and-fill one window, exactly like ``clean_observations``.

        Returns the filled series plus the same :class:`QualityReport`
        the batch cleaning pass would produce for the same observations —
        this is what makes window-close verdicts bit-identical to
        :func:`repro.core.classify.classify_series` on the batch path.
        """
        slots = self._slots(start, n_rounds, row)
        grid = self.values[row, slots]
        n_observed = int(np.count_nonzero(~np.isnan(grid)))
        # Unobserved slots carry no duplicates (eviction zeroes them).
        duplicates = int(self.duplicates[row, slots].sum())
        longest = longest_nan_run(grid) if n_rounds else 0
        if n_observed == 0:
            return grid, QualityReport(
                n_rounds=n_rounds,
                n_observed=0,
                n_duplicates=duplicates,
                n_filled=0,
                longest_gap=longest,
            )
        filled, n_filled = fill_gaps(grid, policy=policy, max_gap=max_gap)
        return filled, QualityReport(
            n_rounds=n_rounds,
            n_observed=n_observed,
            n_duplicates=duplicates,
            n_filled=n_filled,
            longest_gap=longest,
        )
